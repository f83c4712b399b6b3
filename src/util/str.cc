#include "util/str.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace cpdb {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  return Join(parts, std::string_view(&sep, 1));
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

namespace {

// Matches a single segment pattern (may contain '*') against a segment.
bool SegmentMatch(const std::string& pat, const std::string& seg) {
  // Classic iterative glob over one segment.
  size_t p = 0, s = 0, star = std::string::npos, match = 0;
  while (s < seg.size()) {
    if (p < pat.size() && (pat[p] == seg[s])) {
      ++p;
      ++s;
    } else if (p < pat.size() && pat[p] == '*') {
      star = p++;
      match = s;
    } else if (star != std::string::npos) {
      p = star + 1;
      s = ++match;
    } else {
      return false;
    }
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

bool GlobMatchRec(const std::vector<std::string>& pattern, size_t pi,
                  const std::vector<std::string>& subject, size_t si) {
  if (pi == pattern.size()) return si == subject.size();
  if (pattern[pi] == "**") {
    // "**" matches zero or more whole segments.
    for (size_t skip = si; skip <= subject.size(); ++skip) {
      if (GlobMatchRec(pattern, pi + 1, subject, skip)) return true;
    }
    return false;
  }
  if (si == subject.size()) return false;
  if (!SegmentMatch(pattern[pi], subject[si])) return false;
  return GlobMatchRec(pattern, pi + 1, subject, si + 1);
}

}  // namespace

bool GlobMatchSegments(const std::vector<std::string>& pattern,
                       const std::vector<std::string>& subject) {
  return GlobMatchRec(pattern, 0, subject, 0);
}

}  // namespace cpdb
