#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace cpdb::datalog {

/// A term is a variable (uppercase-initial identifier) or a constant
/// (anything else; quoted strings allow arbitrary constants).
struct Term {
  bool is_var = false;
  std::string text;

  static Term Var(std::string name) { return Term{true, std::move(name)}; }
  static Term Const(std::string value) {
    return Term{false, std::move(value)};
  }

  bool operator==(const Term& o) const {
    return is_var == o.is_var && text == o.text;
  }
  std::string ToString() const;
};

/// A literal: possibly-negated predicate applied to terms.
struct Atom {
  std::string pred;
  std::vector<Term> args;
  bool negated = false;

  std::string ToString() const;
};

/// head :- body. An empty body makes the rule a fact (all args must then
/// be constants).
struct Rule {
  Atom head;
  std::vector<Atom> body;

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const Rule& r);

/// A ground tuple in a relation.
using Tuple = std::vector<std::string>;

}  // namespace cpdb::datalog
