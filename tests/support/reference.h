#ifndef WDL_TESTS_SUPPORT_REFERENCE_H_
#define WDL_TESTS_SUPPORT_REFERENCE_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/result.h"
#include "runtime/system.h"

namespace wdl {
namespace test {

/// The reference semantics every view-maintenance test checks the
/// engine against (DESIGN.md §12). A naive, stratified evaluator over
/// rule ASTs, written from the model of DESIGN.md §1 and sharing no
/// evaluation code with src/engine/: no plans, no RuleEvaluator, no
/// stages, no Δ-sets, no delegation.
///
/// It reads a *quiescent* system — every peer's extensional relations
/// and its locally authored rules (InstalledRule::delegation_key == 0)
/// — and recomputes every peer's intensional relations globally, as if
/// all peers were one database: a body atom `r@p(...)` reads relation
/// r of peer p wherever the rule lives. Bodies are joined left to
/// right, so relation and peer variables bound by earlier atoms name
/// the relation an atom reads ($r@$p); a variable bound to a
/// non-string value, or a negated atom that is not ground when
/// reached, kills the branch. A derived fact enters view r@p only if p
/// declares r intensional and the tuple fits r's schema (arity and
/// column types); tuples that fail it are dropped. Rules writing
/// extensional relations (updates, `-head` deletions) are not
/// evaluated: their effects are already part of the extensional state
/// a quiescent system holds, and scenarios that rely on them assert
/// that state explicitly.
///
/// Domain — outside it a mismatch says nothing about the engine:
///  - stratified programs (over the views: no view depends negatively
///    on itself, including through relation/peer variables);
///  - every delegation accepted (gates trust their origins);
///  - no wrappers (external state moves outside the rules);
///  - a quiescent system on healthy links (a partitioned or lossy
///    system is quiescent but stale; see StaleViews);
///  - no view whose support cycles through another peer once base
///    facts are removed: a residual delegated to peer a that re-derives
///    what peer b already holds keeps the tuple alive across the
///    network after its base support is gone, and no peer sees the
///    cycle (a property of the distributed model, not of the engine).
struct ReferenceMismatch {
  std::string peer;
  std::string relation;
  std::vector<Tuple> missing;     // the reference derives, the engine lacks
  std::vector<Tuple> unexpected;  // the engine holds, nothing derives

  /// "rel@peer"
  std::string PredicateId() const { return relation + "@" + peer; }
  std::string ToString() const;
};

struct ReferenceReport {
  /// Non-OK when the program is outside the domain (not stratifiable).
  Status status;
  /// One entry per (peer, intensional relation) whose engine contents
  /// differ from the reference, in (peer, relation) order.
  std::vector<ReferenceMismatch> mismatches;

  bool ok() const { return status.ok() && mismatches.empty(); }
  std::string ToString() const;
};

/// Evaluates the reference over every materialized peer of `system`
/// and diffs each intensional relation against the engine's.
ReferenceReport CheckAgainstReference(const System& system);
/// Single-engine form: the engine's peer is the whole world.
ReferenceReport CheckAgainstReference(const Engine& engine);

/// gtest adapters: success iff the report is ok(); the failure message
/// lists every differing view with its missing/unexpected tuples.
::testing::AssertionResult MatchesReference(const System& system);
::testing::AssertionResult MatchesReference(const Engine& engine);

/// Drives `system` to quiescence, then checks it against the reference
/// — the assertion the oracle suites make at every quiescent point.
::testing::AssertionResult QuiesceAndMatchReference(System& system,
                                                    int max_rounds = 1000);

/// The views that differ from the reference, as sorted "rel@peer"
/// strings — for scenarios that assert a *known* staleness (a dead
/// link left the receiver behind) before healing it.
std::vector<std::string> StaleViews(const System& system);

}  // namespace test
}  // namespace wdl

#endif  // WDL_TESTS_SUPPORT_REFERENCE_H_
