#include "datalog/ast.h"

#include <sstream>

namespace cpdb::datalog {

std::string Term::ToString() const {
  if (is_var) return text;
  return "\"" + text + "\"";
}

std::string Atom::ToString() const {
  std::ostringstream os;
  if (negated) os << "!";
  os << pred << "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ", ";
    os << args[i].ToString();
  }
  os << ")";
  return os.str();
}

std::string Rule::ToString() const {
  std::ostringstream os;
  os << head.ToString();
  if (!body.empty()) {
    os << " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) os << ", ";
      os << body[i].ToString();
    }
  }
  os << ".";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Rule& r) {
  return os << r.ToString();
}

}  // namespace cpdb::datalog
