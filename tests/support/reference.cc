#include "support/reference.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace wdl {
namespace test {
namespace {

using TupleSet = std::set<Tuple>;
using PredKey = std::pair<std::string, std::string>;  // (peer, relation)
using Env = std::map<std::string, Value>;

bool FitsSchema(const RelationDecl& decl, const Tuple& t) {
  if (t.size() != decl.arity()) return false;
  for (size_t i = 0; i < t.size(); ++i) {
    ValueKind want = decl.columns[i].type;
    if (want != ValueKind::kAny && t[i].kind() != want) return false;
  }
  return true;
}

/// The name a relation/peer position denotes under `env`; false when it
/// is an unbound variable or bound to a non-string value.
bool Resolve(const SymTerm& term, const Env& env, std::string* out) {
  if (term.is_name()) {
    *out = term.name();
    return true;
  }
  auto it = env.find(term.var());
  if (it == env.end() || !it->second.is_string()) return false;
  *out = it->second.AsString();
  return true;
}

bool Ground(const std::vector<Term>& args, const Env& env, Tuple* out) {
  out->clear();
  for (const Term& t : args) {
    if (t.is_constant()) {
      out->push_back(t.value());
      continue;
    }
    auto it = env.find(t.var());
    if (it == env.end()) return false;
    out->push_back(it->second);
  }
  return true;
}

/// Binds `args` against `tuple`, extending `env`; false on a clash.
bool Unify(const std::vector<Term>& args, const Tuple& tuple, Env* env) {
  if (args.size() != tuple.size()) return false;
  for (size_t i = 0; i < args.size(); ++i) {
    const Term& t = args[i];
    if (t.is_constant()) {
      if (t.value() != tuple[i]) return false;
      continue;
    }
    auto [it, inserted] = env->emplace(t.var(), tuple[i]);
    if (!inserted && it->second != tuple[i]) return false;
  }
  return true;
}

class Reference {
 public:
  explicit Reference(const std::vector<const Engine*>& engines) {
    for (const Engine* engine : engines) {
      const std::string& peer = engine->self_peer();
      const Catalog& catalog = engine->catalog();
      for (const std::string& name : catalog.RelationNames()) {
        const Relation* rel = catalog.Get(name);
        PredKey key{peer, name};
        if (rel->kind() == RelationKind::kIntensional) {
          views_.emplace(key, &rel->decl());
          actual_.emplace(key, rel->SortedTuples());
          computed_[key];
        } else {
          std::vector<Tuple> tuples = rel->SortedTuples();
          extensional_[key] = TupleSet(tuples.begin(), tuples.end());
        }
      }
      for (const InstalledRule* ir : engine->rules()) {
        if (ir->delegation_key != 0 || ir->rule.head_deletes) continue;
        rules_.push_back(&ir->rule);
      }
    }
  }

  Status Evaluate() {
    std::map<PredKey, int> stratum;
    for (const auto& [key, decl] : views_) stratum[key] = 0;
    // Relax stratum(head) >= stratum(positive read) and
    // stratum(head) > stratum(negated read) over every view a position
    // may denote. A view climbing past the view count sits on a
    // negative cycle: the program is not stratified.
    const int limit = static_cast<int>(views_.size());
    for (bool changed = true; changed;) {
      changed = false;
      for (const Rule* rule : rules_) {
        for (const PredKey& head : Denoted(rule->head)) {
          for (const Atom& atom : rule->body) {
            for (const PredKey& read : Denoted(atom)) {
              int need = stratum[read] + (atom.negated ? 1 : 0);
              if (stratum[head] < need) {
                stratum[head] = need;
                changed = true;
                if (need > limit) {
                  return Status::FailedPrecondition(
                      "reference: program is not stratified at " +
                      head.second + "@" + head.first);
                }
              }
            }
          }
        }
      }
    }

    // A rule runs in the lowest stratum where everything it reads is
    // final: every view it negates sits strictly below, and no view it
    // writes sits below anything it reads (relaxed above).
    std::map<int, std::vector<const Rule*>> by_stratum;
    for (const Rule* rule : rules_) {
      if (Denoted(rule->head).empty()) continue;  // writes no view
      int s = 0;
      for (const Atom& atom : rule->body) {
        for (const PredKey& read : Denoted(atom)) {
          s = std::max(s, stratum[read] + (atom.negated ? 1 : 0));
        }
      }
      by_stratum[s].push_back(rule);
    }

    // Naive fixpoint per stratum: re-run every rule against everything
    // derived so far until a full pass adds nothing.
    for (const auto& [s, rules] : by_stratum) {
      for (bool grew = true; grew;) {
        grew = false;
        for (const Rule* rule : rules) {
          std::vector<std::pair<PredKey, Tuple>> derived;
          Env env;
          Match(*rule, 0, &env, &derived);
          for (auto& [key, tuple] : derived) {
            grew |= computed_[key].insert(std::move(tuple)).second;
          }
        }
      }
    }
    return Status::OK();
  }

  std::vector<ReferenceMismatch> Diff() const {
    std::vector<ReferenceMismatch> out;
    for (const auto& [key, actual_sorted] : actual_) {
      const TupleSet& expected = computed_.at(key);
      TupleSet actual(actual_sorted.begin(), actual_sorted.end());
      ReferenceMismatch m;
      m.peer = key.first;
      m.relation = key.second;
      std::set_difference(expected.begin(), expected.end(), actual.begin(),
                          actual.end(), std::back_inserter(m.missing));
      std::set_difference(actual.begin(), actual.end(), expected.begin(),
                          expected.end(), std::back_inserter(m.unexpected));
      if (!m.missing.empty() || !m.unexpected.empty()) {
        out.push_back(std::move(m));
      }
    }
    return out;
  }

 private:
  /// The views an atom position may denote: exactly one (or none) for
  /// constant names, every name-compatible view for variables.
  std::vector<PredKey> Denoted(const Atom& atom) const {
    std::vector<PredKey> out;
    for (const auto& [key, decl] : views_) {
      if (atom.peer.is_name() && atom.peer.name() != key.first) continue;
      if (atom.relation.is_name() && atom.relation.name() != key.second) {
        continue;
      }
      out.push_back(key);
    }
    return out;
  }

  /// The tuples of relation `rel` at `peer`: the engine's extensional
  /// state or the reference's own view; null when the peer declares no
  /// such relation.
  const TupleSet* Lookup(const std::string& peer,
                         const std::string& rel) const {
    PredKey key{peer, rel};
    auto v = computed_.find(key);
    if (v != computed_.end()) return &v->second;
    auto e = extensional_.find(key);
    return e == extensional_.end() ? nullptr : &e->second;
  }

  /// Left-to-right nested-loop evaluation of `rule`'s body from atom
  /// `i`, collecting the view facts its completed bindings derive.
  void Match(const Rule& rule, size_t i, Env* env,
             std::vector<std::pair<PredKey, Tuple>>* out) const {
    if (i == rule.body.size()) {
      PredKey key;
      Tuple tuple;
      if (!Resolve(rule.head.relation, *env, &key.second) ||
          !Resolve(rule.head.peer, *env, &key.first) ||
          !Ground(rule.head.args, *env, &tuple)) {
        return;
      }
      auto view = views_.find(key);
      if (view != views_.end() && FitsSchema(*view->second, tuple)) {
        out->emplace_back(std::move(key), std::move(tuple));
      }
      return;
    }
    const Atom& atom = rule.body[i];
    std::string peer, rel;
    if (!Resolve(atom.relation, *env, &rel) ||
        !Resolve(atom.peer, *env, &peer)) {
      return;
    }
    const TupleSet* tuples = Lookup(peer, rel);
    if (atom.negated) {
      Tuple probe;
      if (!Ground(atom.args, *env, &probe)) return;
      if (tuples == nullptr || tuples->count(probe) == 0) {
        Match(rule, i + 1, env, out);
      }
      return;
    }
    if (tuples == nullptr) return;
    for (const Tuple& tuple : *tuples) {
      Env extended = *env;
      if (Unify(atom.args, tuple, &extended)) {
        Match(rule, i + 1, &extended, out);
      }
    }
  }

  std::map<PredKey, const RelationDecl*> views_;
  std::map<PredKey, std::vector<Tuple>> actual_;
  std::map<PredKey, TupleSet> computed_;
  std::map<PredKey, TupleSet> extensional_;
  std::vector<const Rule*> rules_;
};

ReferenceReport Check(const std::vector<const Engine*>& engines) {
  ReferenceReport report;
  Reference reference(engines);
  report.status = reference.Evaluate();
  if (report.status.ok()) report.mismatches = reference.Diff();
  return report;
}

std::string RenderTuples(const std::vector<Tuple>& tuples) {
  constexpr size_t kShown = 8;
  std::string out;
  for (size_t i = 0; i < tuples.size() && i < kShown; ++i) {
    if (i > 0) out += " ";
    out += TupleToString(tuples[i]);
  }
  if (tuples.size() > kShown) {
    out += " ... (" + std::to_string(tuples.size()) + " total)";
  }
  return out;
}

::testing::AssertionResult ToAssertion(const ReferenceReport& report) {
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.ToString();
}

}  // namespace

std::string ReferenceMismatch::ToString() const {
  std::string out = PredicateId() + ":";
  if (!missing.empty()) out += " missing " + RenderTuples(missing);
  if (!unexpected.empty()) out += " unexpected " + RenderTuples(unexpected);
  return out;
}

std::string ReferenceReport::ToString() const {
  if (!status.ok()) return status.ToString();
  if (mismatches.empty()) return "views match the reference";
  std::string out = "views differ from the reference:";
  for (const ReferenceMismatch& m : mismatches) out += "\n  " + m.ToString();
  return out;
}

ReferenceReport CheckAgainstReference(const System& system) {
  std::vector<const Engine*> engines;
  for (const std::string& name : system.PeerNames()) {
    const Peer* peer = system.GetPeer(name);
    if (peer->has_engine()) engines.push_back(&peer->engine());
  }
  return Check(engines);
}

ReferenceReport CheckAgainstReference(const Engine& engine) {
  return Check({&engine});
}

::testing::AssertionResult MatchesReference(const System& system) {
  return ToAssertion(CheckAgainstReference(system));
}

::testing::AssertionResult MatchesReference(const Engine& engine) {
  return ToAssertion(CheckAgainstReference(engine));
}

::testing::AssertionResult QuiesceAndMatchReference(System& system,
                                                    int max_rounds) {
  Result<int> rounds = system.RunUntilQuiescent(max_rounds);
  if (!rounds.ok()) {
    return ::testing::AssertionFailure()
           << "no quiescence: " << rounds.status().ToString();
  }
  return MatchesReference(system);
}

std::vector<std::string> StaleViews(const System& system) {
  ReferenceReport report = CheckAgainstReference(system);
  std::vector<std::string> out;
  if (!report.status.ok()) {
    out.push_back(report.status.ToString());
    return out;
  }
  for (const ReferenceMismatch& m : report.mismatches) {
    out.push_back(m.PredicateId());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace test
}  // namespace wdl
