#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "util/result.h"
#include "util/status.h"

namespace cpdb::datalog {

/// Bottom-up datalog engine with stratified negation, evaluated
/// semi-naively (delta iteration) within each stratum.
///
/// This is the executable form of the paper's recursive provenance views
/// (Section 2.1.3's HProv-to-Prov expansion and Section 2.2's
/// From/Trace/Src/Hist/Mod). The optimized hand-written implementations in
/// cpdb::query are cross-checked against this engine by property tests —
/// the datalog text *is* the specification.
class Evaluator {
 public:
  /// Declares a base (EDB) fact.
  void AddFact(const std::string& pred, Tuple tuple);

  /// Adds a rule. Facts (empty body) may also be added this way.
  /// Fails on unsafe rules: every head variable and every variable in a
  /// negated atom must occur in some positive body atom.
  Status AddRule(Rule rule);

  /// Runs to fixpoint. Fails if the program is not stratifiable
  /// (negation through a recursive cycle).
  Status Evaluate();

  /// Tuples of a predicate after Evaluate(); empty set if unknown.
  const std::set<Tuple>& Get(const std::string& pred) const;

  /// True if the ground tuple is derivable (call after Evaluate()).
  bool Holds(const std::string& pred, const Tuple& tuple) const;

 private:
  Status CheckSafety(const Rule& rule) const;
  Result<std::vector<std::vector<std::string>>> Stratify() const;

  /// Evaluates `rule` with atom `delta_idx` (or -1 for "no delta
  /// restriction") drawing from `delta` instead of the full relation;
  /// inserts derived head tuples into `out`.
  void EvalRule(const Rule& rule, int delta_idx,
                const std::map<std::string, std::set<Tuple>>& delta,
                std::set<Tuple>* out) const;

  void MatchFrom(const Rule& rule, size_t atom_idx, int delta_idx,
                 const std::map<std::string, std::set<Tuple>>& delta,
                 std::map<std::string, std::string>* env,
                 std::set<Tuple>* out) const;

  std::map<std::string, std::set<Tuple>> relations_;
  std::vector<Rule> rules_;
  std::set<Tuple> empty_;
};

}  // namespace cpdb::datalog
