#ifndef WDL_ENGINE_EVAL_H_
#define WDL_ENGINE_EVAL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/fact.h"
#include "ast/rule.h"
#include "base/symbol.h"
#include "engine/binding.h"
#include "engine/delegation.h"
#include "engine/plan.h"
#include "storage/catalog.h"
#include "storage/hash_index.h"

namespace wdl {

/// The Δ of one relation: tuples newly derived in the previous fixpoint
/// iteration, with lazily built per-column hash indexes. A Δ-restricted
/// atom whose access-path column is bound probes the index instead of
/// scanning the whole set — the difference between O(|outer|·|Δ|) and
/// O(|outer|) per iteration on bushy recursions like same-generation.
///
/// A DeltaSet is filled first (the engine inserts into the *next* Δ)
/// and probed afterwards (as the *previous* Δ), never both at once, so
/// probes iterate matches directly without snapshotting.
class DeltaSet {
 public:
  bool Insert(Tuple t) {
    auto [it, inserted] = tuples_.insert(std::move(t));
    if (inserted) indexes_.OnInsert(&*it);
    return inserted;
  }

  bool Contains(const Tuple& t) const { return tuples_.count(t) != 0; }

  const std::unordered_set<Tuple, TupleHasher>& tuples() const {
    return tuples_;
  }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Invokes `fn` on tuples whose `column`-th value equals `value`
  /// (tuples too short for the column never match). `fn` must not
  /// mutate this DeltaSet.
  template <typename Fn>
  void LookupEqual(size_t column, const Value& value, Fn&& fn) const {
    LazyColumnIndexes::ProbeEqual(indexes_.Ensure(column, tuples_), column,
                                  value, fn);
  }

 private:
  std::unordered_set<Tuple, TupleHasher> tuples_;
  // Shared build-on-first-probe helper (also used by Relation); mutable
  // because a probe through the const read path may build the index.
  mutable LazyColumnIndexes indexes_;
};

/// Newly derived tuples per relation in the previous fixpoint iteration
/// — the Δ of semi-naive evaluation. Keyed by interned relation symbol:
/// the per-iteration lookup in the join loop is an integer hash, not a
/// string hash.
using DeltaMap = std::unordered_map<Symbol, DeltaSet, SymbolHasher>;

struct EvalOptions {
  /// When false, every atom match scans the full relation; used by the
  /// join ablation (bench_join) to quantify what the indexes buy.
  bool use_indexes = true;
  /// When true (production), each rule is compiled once into a RulePlan
  /// (slot bindings, interned symbols, static access paths) and the
  /// plan is executed. When false, the rule AST is interpreted directly
  /// — the seed semantics, kept as a differential-testing oracle (see
  /// the plan/interpreter equivalence suite).
  bool use_compiled_plans = true;
};

/// Per-evaluation counters (observability and bench instrumentation).
struct EvalCounters {
  uint64_t tuples_examined = 0;
  uint64_t bindings_completed = 0;
  uint64_t delegations_emitted = 0;
  // Plan-cache and access-path telemetry (compiled path only), surfaced
  // in the bench JSON so perf PRs can attribute wins.
  uint64_t plans_compiled = 0;   // distinct rules compiled to plans
  uint64_t plan_cache_hits = 0;  // Evaluate calls served by the cache
  uint64_t slot_bindings = 0;    // slots bound during unification
  uint64_t index_lookups = 0;    // atoms matched via a column-index probe
  uint64_t full_scans = 0;       // atoms matched via a full relation scan
  uint64_t delta_index_probes = 0;  // Δ-restricted atoms using the Δ index
  uint64_t delta_scans = 0;         // Δ-restricted atoms scanning the Δ
  uint64_t negation_probes = 0;  // ground negated-atom containment checks
  // Incremental-maintenance telemetry (DESIGN.md §6), accumulated by
  // the engine's stage driver: proof in bench JSON that per-stage work
  // tracks the change size, not the view size.
  uint64_t stages_incremental = 0;  // stages served by Δ-driven passes
  uint64_t stages_full = 0;      // stages that recomputed (init/fallback)
  uint64_t tuples_retracted = 0;  // over-deleted and not re-derived
  uint64_t tuples_rederived = 0;  // over-deleted, alternative found
  uint64_t rederive_checks = 0;   // head-bound existence probes run
};

/// Evaluates single rules against a peer's local catalog, left to right,
/// producing head instantiations and delegation splits.
///
/// Routing of results follows the WebdamLog stage semantics:
///  - a completed body with a head located at this peer derives a local
///    fact (`on_local_fact`);
///  - a completed body with a remote head contributes to the derived set
///    shipped to that peer (`on_remote_fact`);
///  - hitting a body atom located at a *remote* peer stops local
///    evaluation and emits the residual rule as a Delegation
///    (`on_delegation`) — the paper's signature feature.
///
/// Two execution engines share these semantics: the compiled-plan path
/// (production; zero heap allocation per tuple in the steady-state join
/// loop) and the AST interpreter (oracle). Facts passed to sinks are
/// reused scratch storage on the compiled path — copy them to keep
/// them, as the engine does.
///
/// Not reentrant: sinks must not call back into Evaluate on the same
/// evaluator (slot bindings and scratch buffers are instance state).
class RuleEvaluator {
 public:
  struct Sinks {
    std::function<void(const Fact&)> on_local_fact;
    std::function<void(const Fact&)> on_remote_fact;
    std::function<void(const Delegation&)> on_delegation;
  };

  RuleEvaluator(Catalog* catalog, std::string self_peer, EvalOptions options)
      : catalog_(catalog),
        self_peer_(std::move(self_peer)),
        self_sym_(Symbol::Intern(self_peer_)),
        options_(options) {}

  /// Evaluates `rule`. When `delta` is non-null and `delta_pos >= 0`,
  /// the positive body atom at index `delta_pos` matches only tuples in
  /// the Δ-set of its resolved relation (semi-naive restriction); all
  /// other atoms match full relations. Pass delta == nullptr for a full
  /// (naive / first-iteration) evaluation.
  void Evaluate(const Rule& rule, const DeltaMap* delta, int delta_pos,
                const Sinks& sinks);

  /// Evaluates an already-compiled plan, skipping the cache lookup.
  /// The fixpoint loop resolves each rule's plan once per stage and
  /// re-drives it across iterations and Δ-positions through this.
  void EvaluatePlan(const RulePlan& plan, const DeltaMap* delta,
                    int delta_pos, const Sinks& sinks);

  /// The compiled plan for `rule`, from the cache (compiling on miss).
  /// The reference stays valid until the plan is evicted.
  const RulePlan& PlanFor(const Rule& rule);

  /// Drops the cached plan for `rule`, if any. Called when a rule is
  /// removed or a delegation retracted, so one-off rules (ad-hoc query
  /// scratch rules, churning residuals) don't accumulate plans for the
  /// evaluator's lifetime.
  void EvictPlan(const Rule& rule);

  /// True when `rule` has at least one complete *local* body match
  /// under the bindings obtained by unifying its head with `target` —
  /// i.e. the rule currently derives exactly `target`. The re-derive
  /// existence check of DRed-style retraction (DESIGN.md §6): cost is
  /// one selective body evaluation (head constants drive the access
  /// paths), independent of view size. Evaluation short-circuits on the
  /// first match, emits nothing, and never delegates (a body that
  /// reaches a remote atom does not derive locally). On the compiled
  /// path this runs the head-bound adorned plan (every head variable's
  /// slot seeded from `target`, body occurrences compiled to checks and
  /// index probes); with use_compiled_plans off it interprets, as the
  /// oracle.
  bool ExistsDerivation(const Rule& rule, const Fact& target);

  const EvalCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = EvalCounters(); }
  /// Writable counters for the engine's stage driver (the incremental
  /// stage/retraction tallies live next to the join telemetry so one
  /// JSON block tells the whole per-change-cost story).
  EvalCounters* mutable_counters() { return &counters_; }

 private:
  // --- compiled-plan execution ---------------------------------------
  /// Executes `atoms[atom_index..]`. `order` is null for the natural
  /// body order; for a Δ-first variant it maps each position back to
  /// its original body index (diagnostics) and the Δ restriction
  /// applies at position 0. Delegation can only arise under the natural
  /// order — variants are compiled only for single-peer bodies and run
  /// only when that peer is the evaluator.
  void ExecFrom(const RulePlan& plan, const std::vector<PlanAtom>& atoms,
                const uint16_t* order, size_t atom_index,
                const DeltaMap* delta, int delta_pos, const Sinks& sinks);
  bool UnifyTuple(const PlanAtom& atom, const Tuple& tuple);
  void EmitHeadPlan(const RulePlan& plan, const Sinks& sinks);
  void EmitDelegationPlan(const RulePlan& plan, size_t split_index,
                          const std::string& target, const Sinks& sinks);
  /// Seeds `plan`'s head slots from `target` (the compiled analogue of
  /// UnifyHeadWithFact) and runs the body in exists mode. `plan` must
  /// be the head-bound flavor of the rule being checked.
  bool ExistsViaPlan(const RulePlan& plan, const Fact& target);
  /// The head-bound adorned plan for `rule`, cached like PlanFor.
  const RulePlan& HeadBoundPlanFor(const Rule& rule);

  // --- AST interpreter (differential-testing oracle) -----------------
  void MatchFrom(const Rule& rule, size_t atom_index, Binding* binding,
                 const DeltaMap* delta, int delta_pos, const Sinks& sinks);
  void EmitHead(const Rule& rule, const Binding& binding,
                const Sinks& sinks);
  void EmitDelegation(const Rule& rule, size_t split_index,
                      const std::string& target, const Binding& binding,
                      const Sinks& sinks);

  Catalog* catalog_;
  std::string self_peer_;
  Symbol self_sym_;
  EvalOptions options_;
  EvalCounters counters_;

  // ExistsDerivation state: when exists_mode_ is set, MatchFrom and
  // ExecFrom short-circuit on the first complete match (exists_found_)
  // and treat remote atoms as dead branches instead of delegating. The
  // compiled path runs the head-bound plan flavor (plan.h), whose
  // bind/check op split was fixed at compile time for a *seeded* head —
  // ExistsViaPlan fills the seed slots from the target fact.
  bool exists_mode_ = false;
  bool exists_found_ = false;
  // Owned storage for seeded slot values (slots point into resident
  // tuple storage everywhere else; a target fact's values need a home
  // for the duration of the check). Reserved up front so pushes never
  // reallocate under live slot pointers.
  std::vector<Value> seed_values_;

  // Local plan cache: one strong reference per rule this evaluator has
  // installed, keyed by exact rule content hash (the per-hash vector
  // guards against collisions; entries verify full rule equality
  // against the *lookup* rule, which may be an α-variant of the shared
  // plan's owned rule). Plan storage itself lives in the process-global
  // SharedPlanCache (plan_cache.h), so N evaluators installing the same
  // rule compile it once and share one immutable plan.
  struct LocalPlanEntry {
    Rule rule;  // the rule as this evaluator installed it
    std::shared_ptr<const RulePlan> plan;
  };
  std::unordered_map<uint64_t, std::vector<LocalPlanEntry>> plans_;
  // Head-bound flavor of the same rules, resolved lazily on the first
  // existence check against each rule and evicted together with the
  // natural plan.
  std::unordered_map<uint64_t, std::vector<LocalPlanEntry>> head_bound_plans_;

  // Reusable execution scratch (capacity persists across Evaluate
  // calls; steady state performs no heap allocation).
  std::vector<const Value*> slots_;  // slot -> bound value, or nullptr
  Tuple probe_scratch_;              // ground negation probe
  Fact fact_scratch_;                // head emission
};

/// Resolves a relation/peer term under `binding`. Returns nullptr when
/// the term is a variable bound to a non-string value (such a binding
/// cannot name a relation or peer, so the branch is dead) and points to
/// the resolved name otherwise. `storage` provides space when the name
/// must be materialized from the binding.
const std::string* ResolveSym(const SymTerm& sym, const Binding& binding,
                              std::string* storage);

/// Applies `binding` to every term of `atom`; bound variables become
/// constants (string bindings in relation/peer position become names),
/// unbound variables stay. Returns false when a relation/peer variable
/// is bound to a non-string value.
bool SubstituteAtom(const Atom& atom, const Binding& binding, Atom* out);

}  // namespace wdl

#endif  // WDL_ENGINE_EVAL_H_
