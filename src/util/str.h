#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cpdb {

/// Splits `s` on `sep`, keeping empty segments.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, char sep);
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Parses a signed decimal integer; returns false on any malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a floating point number; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Glob match where '*' matches any run of characters except `sep`, and
/// "**" (a full segment) matches any number of segments. Used by the
/// approximate-provenance extension (paper Section 6).
bool GlobMatchSegments(const std::vector<std::string>& pattern,
                       const std::vector<std::string>& subject);

}  // namespace cpdb
