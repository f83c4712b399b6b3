#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace cpdb {

/// Minimal command-line flag parser for the benchmark and example binaries.
///
/// Accepts `--name=value` and `--name value` forms; everything else is
/// ignored. Values are looked up with typed accessors that fall back to a
/// default when the flag is absent or malformed; a binary that must not
/// run on a misspelled flag or a malformed number calls Check first.
class Flags {
 public:
  /// What a flag's value must parse as.
  enum class Kind { kString, kInt, kDouble, kBool };

  Flags(int argc, char** argv);

  /// OK when every flag given is named in `known` and its value parses as
  /// the kind listed there (a kBool takes no value, true, false, 1 or 0);
  /// otherwise InvalidArgument naming the first flag that does not.
  Status Check(const std::map<std::string, Kind>& known) const;

  /// True if `--name` was present (with or without a value).
  bool Has(const std::string& name) const;

  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace cpdb
