#include "util/flags.h"

#include "util/str.h"

namespace cpdb {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

namespace {

/// True when `value` is a valid value of a `kind` flag.
bool Parses(Flags::Kind kind, const std::string& value) {
  int64_t i;
  double d;
  switch (kind) {
    case Flags::Kind::kString:
      return true;
    case Flags::Kind::kInt:
      return ParseInt64(value, &i);
    case Flags::Kind::kDouble:
      return ParseDouble(value, &d);
    case Flags::Kind::kBool:
      return value.empty() || value == "true" || value == "false" ||
             value == "1" || value == "0";
  }
  return false;
}

}  // namespace

Status Flags::Check(const std::map<std::string, Kind>& known) const {
  for (const auto& [name, value] : values_) {
    auto it = known.find(name);
    if (it == known.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!Parses(it->second, value)) {
      return Status::InvalidArgument("malformed value in --" + name + "=" +
                                     value);
    }
  }
  return Status::OK();
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  int64_t v;
  return ParseInt64(it->second, &v) ? v : def;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  double v;
  return ParseDouble(it->second, &v) ? v : def;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  return false;
}

}  // namespace cpdb
