#include "datalog/evaluator.h"

#include <algorithm>

namespace cpdb::datalog {

void Evaluator::AddFact(const std::string& pred, Tuple tuple) {
  relations_[pred].insert(std::move(tuple));
}

Status Evaluator::CheckSafety(const Rule& rule) const {
  std::set<std::string> positive_vars;
  for (const Atom& a : rule.body) {
    if (a.negated) continue;
    for (const Term& t : a.args) {
      if (t.is_var) positive_vars.insert(t.text);
    }
  }
  for (const Term& t : rule.head.args) {
    if (t.is_var && positive_vars.count(t.text) == 0) {
      return Status::InvalidArgument("unsafe rule (unbound head var " +
                                     t.text + "): " + rule.ToString());
    }
  }
  for (const Atom& a : rule.body) {
    if (!a.negated) continue;
    for (const Term& t : a.args) {
      if (t.is_var && positive_vars.count(t.text) == 0) {
        return Status::InvalidArgument(
            "unsafe rule (unbound var in negation " + t.text + "): " +
            rule.ToString());
      }
    }
  }
  return Status::OK();
}

Status Evaluator::AddRule(Rule rule) {
  if (rule.body.empty()) {
    Tuple t;
    for (const Term& term : rule.head.args) {
      if (term.is_var) {
        return Status::InvalidArgument("fact with variable: " +
                                       rule.ToString());
      }
      t.push_back(term.text);
    }
    AddFact(rule.head.pred, std::move(t));
    return Status::OK();
  }
  CPDB_RETURN_IF_ERROR(CheckSafety(rule));
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> Evaluator::Stratify() const {
  // Collect predicates with dependency edges: head <- body (weight 0 for
  // positive, 1 for negated). A program is stratifiable iff no cycle has a
  // negative edge. We compute strata by iterating the longest-negative-
  // path style relaxation; divergence (> #preds rounds) means a negative
  // cycle.
  std::set<std::string> preds;
  for (const auto& [name, rel] : relations_) {
    (void)rel;
    preds.insert(name);
  }
  for (const Rule& r : rules_) {
    preds.insert(r.head.pred);
    for (const Atom& a : r.body) preds.insert(a.pred);
  }
  std::map<std::string, int> stratum;
  for (const auto& p : preds) stratum[p] = 0;

  size_t n = preds.size();
  bool changed = true;
  for (size_t round = 0; changed; ++round) {
    if (round > n + 1) {
      return Status::InvalidArgument(
          "program is not stratifiable (negation in a cycle)");
    }
    changed = false;
    for (const Rule& r : rules_) {
      int& h = stratum[r.head.pred];
      for (const Atom& a : r.body) {
        int need = stratum[a.pred] + (a.negated ? 1 : 0);
        if (h < need) {
          h = need;
          changed = true;
        }
      }
    }
  }
  int max_stratum = 0;
  for (const auto& [p, s] : stratum) {
    (void)p;
    max_stratum = std::max(max_stratum, s);
  }
  std::vector<std::vector<std::string>> strata(
      static_cast<size_t>(max_stratum) + 1);
  for (const auto& [p, s] : stratum) {
    strata[static_cast<size_t>(s)].push_back(p);
  }
  return strata;
}

void Evaluator::MatchFrom(const Rule& rule, size_t atom_idx, int delta_idx,
                          const std::map<std::string, std::set<Tuple>>& delta,
                          std::map<std::string, std::string>* env,
                          std::set<Tuple>* out) const {
  if (atom_idx == rule.body.size()) {
    Tuple t;
    t.reserve(rule.head.args.size());
    for (const Term& term : rule.head.args) {
      t.push_back(term.is_var ? (*env)[term.text] : term.text);
    }
    out->insert(std::move(t));
    return;
  }
  const Atom& atom = rule.body[atom_idx];

  auto lookup_rel = [&](const std::string& pred) -> const std::set<Tuple>& {
    auto it = relations_.find(pred);
    return it == relations_.end() ? empty_ : it->second;
  };

  if (atom.negated) {
    // All variables are bound (safety); check for absence.
    Tuple t;
    t.reserve(atom.args.size());
    for (const Term& term : atom.args) {
      t.push_back(term.is_var ? (*env)[term.text] : term.text);
    }
    if (lookup_rel(atom.pred).count(t) == 0) {
      MatchFrom(rule, atom_idx + 1, delta_idx, delta, env, out);
    }
    return;
  }

  const std::set<Tuple>* rel;
  if (static_cast<int>(atom_idx) == delta_idx) {
    auto it = delta.find(atom.pred);
    rel = it == delta.end() ? &empty_ : &it->second;
  } else {
    rel = &lookup_rel(atom.pred);
  }

  for (const Tuple& t : *rel) {
    if (t.size() != atom.args.size()) continue;
    // Unify, recording which vars we newly bound.
    std::vector<std::string> bound_here;
    bool ok = true;
    for (size_t i = 0; i < t.size(); ++i) {
      const Term& term = atom.args[i];
      if (!term.is_var) {
        if (term.text != t[i]) {
          ok = false;
          break;
        }
        continue;
      }
      auto it = env->find(term.text);
      if (it == env->end()) {
        (*env)[term.text] = t[i];
        bound_here.push_back(term.text);
      } else if (it->second != t[i]) {
        ok = false;
        break;
      }
    }
    if (ok) {
      MatchFrom(rule, atom_idx + 1, delta_idx, delta, env, out);
    }
    for (const auto& v : bound_here) env->erase(v);
  }
}

void Evaluator::EvalRule(const Rule& rule, int delta_idx,
                         const std::map<std::string, std::set<Tuple>>& delta,
                         std::set<Tuple>* out) const {
  std::map<std::string, std::string> env;
  MatchFrom(rule, 0, delta_idx, delta, &env, out);
}

Status Evaluator::Evaluate() {
  CPDB_ASSIGN_OR_RETURN(auto strata, Stratify());

  for (const auto& stratum_preds : strata) {
    std::set<std::string> in_stratum(stratum_preds.begin(),
                                     stratum_preds.end());
    std::vector<const Rule*> stratum_rules;
    for (const Rule& r : rules_) {
      if (in_stratum.count(r.head.pred) > 0) stratum_rules.push_back(&r);
    }
    if (stratum_rules.empty()) continue;

    // Initial round: full evaluation of each rule.
    std::map<std::string, std::set<Tuple>> delta;
    for (const Rule* r : stratum_rules) {
      std::set<Tuple> derived;
      EvalRule(*r, -1, {}, &derived);
      for (const Tuple& t : derived) {
        if (relations_[r->head.pred].insert(t).second) {
          delta[r->head.pred].insert(t);
        }
      }
    }

    // Semi-naive iteration: re-evaluate only with one recursive atom
    // restricted to the previous round's delta.
    while (!delta.empty()) {
      std::map<std::string, std::set<Tuple>> next_delta;
      for (const Rule* r : stratum_rules) {
        for (size_t i = 0; i < r->body.size(); ++i) {
          const Atom& a = r->body[i];
          if (a.negated) continue;
          if (in_stratum.count(a.pred) == 0) continue;
          if (delta.find(a.pred) == delta.end()) continue;
          std::set<Tuple> derived;
          EvalRule(*r, static_cast<int>(i), delta, &derived);
          for (const Tuple& t : derived) {
            if (relations_[r->head.pred].insert(t).second) {
              next_delta[r->head.pred].insert(t);
            }
          }
        }
      }
      delta = std::move(next_delta);
    }
  }
  return Status::OK();
}

const std::set<Tuple>& Evaluator::Get(const std::string& pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? empty_ : it->second;
}

bool Evaluator::Holds(const std::string& pred, const Tuple& tuple) const {
  return Get(pred).count(tuple) > 0;
}

}  // namespace cpdb::datalog
