#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "parser/parser.h"
#include "support/builders.h"

namespace wdl {
namespace {

using test::I;
using test::P;
using test::R;
using test::S;
using test::Settle;

TEST(EngineTest, TransitiveClosureLocalFixpoint) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext edge@p(x: int, y: int);
    collection int tc@p(x: int, y: int);
    fact edge@p(1, 2); fact edge@p(2, 3); fact edge@p(3, 4);
    rule tc@p($x, $y) :- edge@p($x, $y);
    rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);
  )")).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("tc")->size(), 6u);  // all pairs i<j
  EXPECT_TRUE(e.catalog().Get("tc")->Contains({I(1), I(4)}));
}

TEST(EngineTest, NaiveAndSemiNaiveAgreeOnChain) {
  auto run = [](EvalMode mode) {
    EngineOptions opts;
    opts.mode = mode;
    Engine e("p", opts);
    std::string program =
        "collection ext edge@p(x: int, y: int);\n"
        "collection int tc@p(x: int, y: int);\n"
        "rule tc@p($x, $y) :- edge@p($x, $y);\n"
        "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);\n";
    EXPECT_TRUE(e.LoadProgram(P(program)).ok());
    for (int64_t i = 0; i < 30; ++i) {
      EXPECT_TRUE(e.InsertFact(Fact("edge", "p", {I(i), I(i + 1)})).ok());
    }
    Settle(&e);
    return e.catalog().Get("tc")->SortedTuples();
  };
  std::vector<Tuple> semi = run(EvalMode::kSemiNaive);
  std::vector<Tuple> naive = run(EvalMode::kNaive);
  EXPECT_EQ(semi.size(), 30u * 31u / 2u);
  EXPECT_EQ(semi, naive);
}

TEST(EngineTest, SemiNaiveDoesLessWorkThanNaive) {
  auto work = [](EvalMode mode) {
    EngineOptions opts;
    opts.mode = mode;
    opts.use_indexes = false;  // make examined-tuple counts comparable
    Engine e("p", opts);
    EXPECT_TRUE(e.LoadProgram(P(
        "collection ext edge@p(x: int, y: int);"
        "collection int tc@p(x: int, y: int);"
        "rule tc@p($x, $y) :- edge@p($x, $y);"
        "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);")).ok());
    for (int64_t i = 0; i < 40; ++i) {
      EXPECT_TRUE(e.InsertFact(Fact("edge", "p", {I(i), I(i + 1)})).ok());
    }
    StageResult r = e.RunStage();
    return r.stats.tuples_examined;
  };
  EXPECT_LT(work(EvalMode::kSemiNaive), work(EvalMode::kNaive));
}

TEST(EngineTest, SameGenerationNaiveAndSemiNaiveAgree) {
  // A nonlinear recursive rule (two joins around the recursive atom)
  // over a complete binary tree: wide Δ rounds, unlike the chain.
  auto run = [](EvalMode mode) {
    EngineOptions opts;
    opts.mode = mode;
    Engine e("p", opts);
    EXPECT_TRUE(e.LoadProgram(P(
        "collection ext par@p(c: int, d: int);"
        "collection int sg@p(x: int, y: int);"
        "rule sg@p($x, $x) :- par@p($x, $_);"
        "rule sg@p($x, $y) :- par@p($x, $xp), sg@p($xp, $yp), "
        "par@p($y, $yp);")).ok());
    for (int64_t parent = 1; parent < (1 << 5); ++parent) {
      EXPECT_TRUE(
          e.InsertFact(Fact("par", "p", {I(2 * parent), I(parent)})).ok());
      EXPECT_TRUE(
          e.InsertFact(Fact("par", "p", {I(2 * parent + 1), I(parent)}))
              .ok());
    }
    Settle(&e);
    return e.catalog().Get("sg")->SortedTuples();
  };
  std::vector<Tuple> semi = run(EvalMode::kSemiNaive);
  EXPECT_EQ(semi, run(EvalMode::kNaive));
  // 8 and 11 descend from 2 through siblings 4 and 5; 12 descends from 3.
  auto has = [&](int64_t x, int64_t y) {
    return std::find(semi.begin(), semi.end(), Tuple{I(x), I(y)}) !=
           semi.end();
  };
  EXPECT_TRUE(has(8, 11));
  EXPECT_FALSE(has(8, 12));
  EXPECT_FALSE(has(2, 3));  // the root has no parent, so no sg(1, 1)
}

TEST(EngineTest, IdenticalRunsReportIdenticalEvalCounters) {
  // Work counters, not just final states, replay exactly: benches and
  // the trace read them as per-layer measurements.
  auto run = [] {
    Engine e("p");
    EXPECT_TRUE(e.LoadProgram(P(
        "collection ext edge@p(x: int, y: int);"
        "collection int tc@p(x: int, y: int);"
        "rule tc@p($x, $y) :- edge@p($x, $y);"
        "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);")).ok());
    for (int64_t i = 0; i < 48; ++i) {
      EXPECT_TRUE(e.InsertFact(Fact("edge", "p", {I(i), I(i + 1)})).ok());
    }
    Settle(&e);
    EXPECT_TRUE(e.RemoveFact(Fact("edge", "p", {I(20), I(21)})).ok());
    Settle(&e);
    return e.eval_counters();
  };
  const EvalCounters a = run();
  const EvalCounters b = run();
  EXPECT_GT(a.tuples_examined, 0u);
  EXPECT_GT(a.tuples_retracted, 0u);
  EXPECT_EQ(a.tuples_examined, b.tuples_examined);
  EXPECT_EQ(a.bindings_completed, b.bindings_completed);
  EXPECT_EQ(a.slot_bindings, b.slot_bindings);
  EXPECT_EQ(a.index_lookups, b.index_lookups);
  EXPECT_EQ(a.full_scans, b.full_scans);
  EXPECT_EQ(a.delta_index_probes, b.delta_index_probes);
  EXPECT_EQ(a.delta_scans, b.delta_scans);
  EXPECT_EQ(a.tuples_retracted, b.tuples_retracted);
  EXPECT_EQ(a.rederive_checks, b.rederive_checks);
}

TEST(EngineTest, IntensionalRelationsRecomputeAfterBaseDeletion) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext b@p(x: int);
    collection int v@p(x: int);
    fact b@p(1); fact b@p(2);
    rule v@p($x) :- b@p($x);
  )")).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("v")->size(), 2u);
  ASSERT_TRUE(e.RemoveFact(Fact("b", "p", {I(1)})).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("v")->size(), 1u);
  EXPECT_TRUE(e.catalog().Get("v")->Contains({I(2)}));
}

TEST(EngineTest, InsertIntoIntensionalRelationRejected) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P("collection int v@p(x: int);")).ok());
  EXPECT_EQ(e.InsertFact(Fact("v", "p", {I(1)})).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, StratifiedNegationComplement) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext node@p(x: int);
    collection ext edge@p(x: int, y: int);
    collection int reach@p(x: int);
    collection int unreach@p(x: int);
    fact node@p(1); fact node@p(2); fact node@p(3);
    fact edge@p(1, 2);
    rule reach@p(1) :- node@p(1);
    rule reach@p($y) :- reach@p($x), edge@p($x, $y);
    rule unreach@p($x) :- node@p($x), not reach@p($x);
  )")).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("reach")->size(), 2u);
  ASSERT_EQ(e.catalog().Get("unreach")->size(), 1u);
  EXPECT_TRUE(e.catalog().Get("unreach")->Contains({I(3)}));
}

TEST(EngineTest, Paper2013DialectRejectsNegatedRule) {
  EngineOptions opts;
  opts.dialect = Dialect::kPaper2013;
  Engine e("p", opts);
  Result<uint64_t> r = e.AddRule(R("h@p($x) :- a@p($x), not b@p($x)"));
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(EngineTest, UnsafeRuleRejected) {
  Engine e("p");
  EXPECT_FALSE(e.AddRule(R("h@p($x, $y) :- a@p($x)")).ok());
}

TEST(EngineTest, UnstratifiableDelegatedRuleRejectedAtInstall) {
  Engine e("p");
  ASSERT_TRUE(
      e.AddRule(R("a@p($x) :- s@p($x), not b@p($x)")).ok());
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "p";
  d.rule = R("b@p($x) :- s@p($x), not a@p($x)");
  EXPECT_FALSE(e.InstallDelegatedRule(d).ok());
}

TEST(EngineTest, RemoveRuleRetractsItsDelegationsNextStage) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext sel@p(a: string);
    fact sel@p("q");
  )")).ok());
  Result<uint64_t> id = e.AddRule(R("h@p($x) :- sel@p($a), data@$a($x)"));
  ASSERT_TRUE(id.ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  ASSERT_EQ(first.outbound["q"].delegation_installs.size(), 1u);
  uint64_t key = first.outbound["q"].delegation_installs[0].Key();

  ASSERT_TRUE(e.RemoveRule(*id).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound.count("q"), 1u);
  ASSERT_EQ(second.outbound["q"].delegation_retracts.size(), 1u);
  EXPECT_EQ(second.outbound["q"].delegation_retracts[0], key);
}

TEST(EngineTest, DelegationInstallIsIdempotent) {
  Engine e("p");
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "p";
  d.rule = R("h@q($x) :- data@p($x)");
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  EXPECT_EQ(e.rules().size(), 1u);
}

TEST(EngineTest, DelegationForWrongTargetRejected) {
  Engine e("p");
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "r";  // not us
  d.rule = R("h@q($x) :- data@r($x)");
  EXPECT_FALSE(e.InstallDelegatedRule(d).ok());
}

TEST(EngineTest, DerivedSetToExtensionalIsPersistentUnion) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection ext inbox@p(x: int);")).ok());
  DerivedSet set;
  set.target_peer = "p";
  set.relation = "inbox";
  set.tuples = {Tuple{I(1)}, Tuple{I(2)}};
  e.EnqueueDerivedSet("q", set);
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("inbox")->size(), 2u);

  // A shrunk set later does NOT delete: updates are persistent.
  set.tuples = {Tuple{I(1)}};
  e.EnqueueDerivedSet("q", set);
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("inbox")->size(), 2u);
}

TEST(EngineTest, DerivedSetToIntensionalReplacesSenderSlice) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());
  DerivedSet set;
  set.target_peer = "p";
  set.relation = "view";
  set.tuples = {Tuple{I(1)}, Tuple{I(2)}};
  e.EnqueueDerivedSet("q", set);
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);

  set.tuples = {Tuple{I(3)}};
  e.EnqueueDerivedSet("q", set);
  e.RunStage();
  const Relation* view = e.catalog().Get("view");
  EXPECT_EQ(view->size(), 1u);
  EXPECT_TRUE(view->Contains({I(3)}));
}

TEST(EngineTest, SlicesFromDistinctSendersAreIndependent) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());
  DerivedSet from_q{.target_peer = "p", .relation = "view",
                    .tuples = {Tuple{I(1)}}};
  DerivedSet from_r{.target_peer = "p", .relation = "view",
                    .tuples = {Tuple{I(2)}}};
  e.EnqueueDerivedSet("q", from_q);
  e.EnqueueDerivedSet("r", from_r);
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);

  // q empties its slice; r's contribution survives.
  from_q.tuples.clear();
  e.EnqueueDerivedSet("q", from_q);
  e.RunStage();
  const Relation* view = e.catalog().Get("view");
  EXPECT_EQ(view->size(), 1u);
  EXPECT_TRUE(view->Contains({I(2)}));
}

TEST(EngineTest, UnchangedContributionIsNotResent) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    fact data@p(1);
    rule mirror@q($x) :- data@p($x);
  )")).ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  // Force extra stages: nothing new must be shipped.
  e.InsertFact(Fact("data", "p", {I(1)})).value();  // duplicate, no-op
  StageResult second = e.RunStage();
  EXPECT_EQ(second.outbound.count("q"), 0u);
}

TEST(EngineTest, EmptiedContributionIsSentOnceAsEmptySet) {
  // Full-slice oracle mode: an emptied contribution ships as one empty
  // DerivedSet (the differential twin of this test ships the deletes).
  EngineOptions opts;
  opts.use_differential_propagation = false;
  Engine e("p", opts);
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    collection int view@p(x: int);
    fact data@p(1);
    rule view@p($x) :- data@p($x);
    rule mirror@q($x) :- view@p($x);
  )")).ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  ASSERT_EQ(first.outbound["q"].derived_sets.size(), 1u);

  ASSERT_TRUE(e.RemoveFact(Fact("data", "p", {I(1)})).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound.count("q"), 1u);
  ASSERT_EQ(second.outbound["q"].derived_sets.size(), 1u);
  EXPECT_TRUE(second.outbound["q"].derived_sets[0].tuples.empty());

  // And only once: a third stage is silent.
  StageResult third = e.RunStage();
  EXPECT_EQ(third.outbound.count("q"), 0u);
}

TEST(EngineTest, DifferentialShipsOnlyTheChange) {
  Engine e("p");  // differential propagation is the default
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    fact data@p(1);
    rule mirror@q($x) :- data@p($x);
  )")).ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  ASSERT_EQ(first.outbound["q"].derived_deltas.size(), 1u);
  {
    const DerivedDelta& dd = first.outbound["q"].derived_deltas[0];
    EXPECT_EQ(dd.base_version, 0u);
    EXPECT_EQ(dd.version, 1u);
    EXPECT_EQ(dd.inserts.size(), 1u);
    EXPECT_TRUE(dd.deletes.empty());
  }

  // One more base fact: the delta carries exactly the one new tuple,
  // not the whole two-tuple contribution.
  ASSERT_TRUE(e.InsertFact(Fact("data", "p", {I(2)})).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound["q"].derived_deltas.size(), 1u);
  {
    const DerivedDelta& dd = second.outbound["q"].derived_deltas[0];
    EXPECT_EQ(dd.base_version, 1u);
    EXPECT_EQ(dd.version, 2u);
    ASSERT_EQ(dd.inserts.size(), 1u);
    EXPECT_EQ(dd.inserts[0], Tuple{I(2)});
    EXPECT_TRUE(dd.deletes.empty());
  }

  // Removing one fact ships its deletion only.
  ASSERT_TRUE(e.RemoveFact(Fact("data", "p", {I(1)})).ok());
  StageResult third = e.RunStage();
  ASSERT_EQ(third.outbound["q"].derived_deltas.size(), 1u);
  {
    const DerivedDelta& dd = third.outbound["q"].derived_deltas[0];
    EXPECT_EQ(dd.base_version, 2u);
    EXPECT_EQ(dd.version, 3u);
    EXPECT_TRUE(dd.inserts.empty());
    ASSERT_EQ(dd.deletes.size(), 1u);
    EXPECT_EQ(dd.deletes[0], Tuple{I(1)});
  }

  // Unchanged contribution: silent.
  StageResult fourth = e.RunStage();
  EXPECT_EQ(fourth.outbound.count("q"), 0u);
}

TEST(EngineTest, DifferentialEmptiedContributionShipsDeletes) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    collection int view@p(x: int);
    fact data@p(1);
    rule view@p($x) :- data@p($x);
    rule mirror@q($x) :- view@p($x);
  )")).ok());
  (void)e.RunStage();
  ASSERT_TRUE(e.RemoveFact(Fact("data", "p", {I(1)})).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound["q"].derived_deltas.size(), 1u);
  const DerivedDelta& dd = second.outbound["q"].derived_deltas[0];
  EXPECT_TRUE(dd.inserts.empty());
  ASSERT_EQ(dd.deletes.size(), 1u);

  StageResult third = e.RunStage();
  EXPECT_EQ(third.outbound.count("q"), 0u);
}

TEST(EngineTest, ResyncRequestIsServedWithSnapshot) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    fact data@p(1); fact data@p(2);
    rule mirror@q($x) :- data@p($x);
  )")).ok());
  (void)e.RunStage();

  // q claims it lost part of the stream; the next stage ships the full
  // contribution as a snapshot at the current version, even though the
  // contribution itself did not change.
  e.EnqueueResyncRequest("q", "mirror");
  ASSERT_TRUE(e.HasPendingWork());
  StageResult served = e.RunStage();
  ASSERT_EQ(served.outbound["q"].derived_deltas.size(), 1u);
  const DerivedDelta& dd = served.outbound["q"].derived_deltas[0];
  EXPECT_TRUE(dd.snapshot);
  EXPECT_EQ(dd.version, 1u);
  EXPECT_EQ(dd.inserts.size(), 2u);
  EXPECT_EQ(e.propagation_counters().snapshots_shipped, 1u);
}

TEST(EngineTest, GappedDeltaTriggersResyncRequest) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());

  DerivedDelta d1;
  d1.target_peer = "p";
  d1.relation = "view";
  d1.base_version = 0;
  d1.version = 1;
  d1.inserts = {Tuple{I(1)}};
  e.EnqueueDerivedDelta("q", d1);
  (void)e.RunStage();
  EXPECT_TRUE(e.catalog().Get("view")->Contains({I(1)}));
  EXPECT_EQ(e.slice_store().StreamVersion("view", "q"), 1u);

  // Version 2 is lost; version 3 arrives. The slice must not apply it,
  // and a resync request must go back to q.
  DerivedDelta d3;
  d3.target_peer = "p";
  d3.relation = "view";
  d3.base_version = 2;
  d3.version = 3;
  d3.inserts = {Tuple{I(3)}};
  e.EnqueueDerivedDelta("q", d3);
  StageResult r = e.RunStage();
  EXPECT_FALSE(e.catalog().Get("view")->Contains({I(3)}));
  ASSERT_EQ(r.outbound.count("q"), 1u);
  ASSERT_EQ(r.outbound["q"].resync_requests.size(), 1u);
  EXPECT_EQ(r.outbound["q"].resync_requests[0], "view");
  EXPECT_EQ(e.propagation_counters().resyncs_requested, 1u);

  // The snapshot response repairs the slice wholesale.
  DerivedDelta snap;
  snap.target_peer = "p";
  snap.relation = "view";
  snap.snapshot = true;
  snap.version = 3;
  snap.inserts = {Tuple{I(1)}, Tuple{I(3)}};
  e.EnqueueDerivedDelta("q", snap);
  (void)e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);
  EXPECT_EQ(e.slice_store().StreamVersion("view", "q"), 3u);

  // A late duplicate of the gapped delta is now stale: no double-apply,
  // no new resync.
  e.EnqueueDerivedDelta("q", d3);
  StageResult dup = e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);
  EXPECT_EQ(dup.outbound.count("q"), 0u);
}

TEST(EngineTest, SelfHealedGapDoesNotRequestResync) {
  // A reordered batch [v2, v1, v2-duplicate] momentarily looks gapped,
  // but the stream is whole by the end of input application — no
  // resync (and its O(|view|) snapshot answer) may be requested.
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());

  DerivedDelta d1;
  d1.target_peer = "p";
  d1.relation = "view";
  d1.base_version = 0;
  d1.version = 1;
  d1.inserts = {Tuple{I(1)}};
  DerivedDelta d2;
  d2.target_peer = "p";
  d2.relation = "view";
  d2.base_version = 1;
  d2.version = 2;
  d2.inserts = {Tuple{I(2)}};

  e.EnqueueDerivedDelta("q", d2);  // early copy: gap at arrival time
  e.EnqueueDerivedDelta("q", d1);
  e.EnqueueDerivedDelta("q", d2);  // duplicate heals the stream
  StageResult r = e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);
  EXPECT_EQ(e.slice_store().StreamVersion("view", "q"), 2u);
  EXPECT_EQ(r.outbound.count("q"), 0u);
  EXPECT_EQ(e.propagation_counters().resyncs_requested, 0u);
}

TEST(EngineTest, ProgramListingMarksDelegatedRules) {
  Engine e("p");
  ASSERT_TRUE(e.AddRule(R("local@p($x) :- base@p($x)")).ok());
  Delegation d;
  d.origin_peer = "julia";
  d.target_peer = "p";
  d.rule = R("spy@julia($x) :- base@p($x)");
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  std::string listing = e.ProgramListing();
  EXPECT_NE(listing.find("delegated by julia"), std::string::npos);
}

TEST(EngineTest, StageStatsReportRulesAndDerivations) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext b@p(x: int);
    collection int v@p(x: int);
    fact b@p(1); fact b@p(2);
    rule v@p($x) :- b@p($x);
  )")).ok());
  StageResult r = e.RunStage();
  EXPECT_EQ(r.stats.active_rules, 1u);
  EXPECT_EQ(r.stats.local_derivations, 2u);
  EXPECT_GE(r.stats.iterations, 1);
}

// Differential property: semi-naive and naive must agree on random
// graphs of various shapes.
class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(DifferentialTest, SemiNaiveMatchesNaiveOnRandomGraphs) {
  auto [nodes, edges, seed] = GetParam();
  std::vector<std::pair<int64_t, int64_t>> edge_list;
  uint64_t state = seed;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < edges; ++i) {
    edge_list.emplace_back(next() % nodes, next() % nodes);
  }

  auto run = [&](EvalMode mode) {
    EngineOptions opts;
    opts.mode = mode;
    Engine e("p", opts);
    EXPECT_TRUE(e.LoadProgram(P(
        "collection ext edge@p(x: int, y: int);"
        "collection int tc@p(x: int, y: int);"
        "rule tc@p($x, $y) :- edge@p($x, $y);"
        "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);")).ok());
    for (auto [a, b] : edge_list) {
      EXPECT_TRUE(e.InsertFact(Fact("edge", "p", {I(a), I(b)})).ok());
    }
    Settle(&e);
    return e.catalog().Get("tc")->SortedTuples();
  };
  EXPECT_EQ(run(EvalMode::kSemiNaive), run(EvalMode::kNaive));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DifferentialTest,
    ::testing::Values(std::make_tuple(5, 8, 1ull),
                      std::make_tuple(10, 20, 2ull),
                      std::make_tuple(20, 60, 3ull),
                      std::make_tuple(8, 30, 4ull),
                      std::make_tuple(30, 45, 5ull)));

}  // namespace
}  // namespace wdl
