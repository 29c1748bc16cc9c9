// Propagation suite, checked against the reference evaluator.
//
// The differential propagation protocol (DerivedDelta streams with
// versions + resync, DESIGN.md §5) must converge every multi-peer run
// to the views the reference evaluator (tests/support/reference.h)
// computes from the same extensional state and rules — including
// deletions, delegation retracts, and messy links (loss with healing,
// duplication). Every scenario asserts the reference at each quiescent
// point on healthy links, and names the stale views at each quiescent
// point behind a dead link.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/query.h"
#include "runtime/system.h"
#include "support/builders.h"
#include "support/counters.h"
#include "support/fixture.h"
#include "support/reference.h"

namespace wdl {
namespace {

using test::GlobalStateFingerprint;
using test::I;
using test::NetworkCounters;
using test::QuiesceAndMatchReference;
using test::S;
using test::StaleViews;

/// Runs `scenario` against a fresh System, then returns the converged
/// global state. Scenarios assert the reference at every quiescent
/// point themselves.
std::string RunScenario(
    const std::function<void(System&, PeerOptions)>& scenario,
    const SystemOptions& sys_opts = {}) {
  System system(sys_opts);
  scenario(system, PeerOptions{});
  return GlobalStateFingerprint(system);
}

// Two senders feed one intensional board with overlapping tuples; facts
// are later deleted, including one whose twin survives at the other
// sender (support counts must keep it alive).
void OverlappingViewScenario(System& system, PeerOptions mode) {
  Peer* hub = system.CreatePeer("hub", mode);
  Peer* a = system.CreatePeer("a", mode);
  Peer* b = system.CreatePeer("b", mode);
  ASSERT_TRUE(hub->LoadProgramText(
      "collection int board@hub(x: int);").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext data@b(x: int);
    rule board@hub($x) :- data@b($x);
  )").ok());
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(a->Insert(Fact("data", "a", {I(i)})).ok());
  }
  for (int64_t i = 4; i < 10; ++i) {  // 4 and 5 overlap with a
    ASSERT_TRUE(b->Insert(Fact("data", "b", {I(i)})).ok());
  }
  ASSERT_TRUE(QuiesceAndMatchReference(system));

  // Deletions: 4 stays supported by b; 0 vanishes outright; 9 vanishes
  // from b's side.
  ASSERT_TRUE(a->Remove(Fact("data", "a", {I(4)})).ok());
  ASSERT_TRUE(a->Remove(Fact("data", "a", {I(0)})).ok());
  ASSERT_TRUE(b->Remove(Fact("data", "b", {I(9)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
}

TEST(PropagationOracleTest, OverlappingViewsWithDeletions) {
  RunScenario(OverlappingViewScenario);

  // The converged content itself, and the support count behind it.
  System system;
  OverlappingViewScenario(system, PeerOptions{});
  const Relation* board =
      system.GetPeer("hub")->engine().catalog().Get("board");
  ASSERT_NE(board, nullptr);
  EXPECT_EQ(board->size(), 8u);                  // 1..8
  EXPECT_TRUE(board->Contains({I(4)}));          // still supported by b
  EXPECT_FALSE(board->Contains({I(0)}));
  EXPECT_FALSE(board->Contains({I(9)}));
  EXPECT_EQ(system.GetPeer("hub")->engine().slice_store().SupportCount(
                "board", {I(4)}),
            1u);
}

// A rule whose body crosses to a remote peer delegates a residual; when
// the rule is removed, the delegation retracts and the remote peer's
// contribution must drain from the view.
void DelegationRetractScenario(System& system, PeerOptions mode) {
  Peer* a = system.CreatePeer("a", mode);
  Peer* b = system.CreatePeer("b", mode);
  a->gate().TrustPeer("b");
  b->gate().TrustPeer("a");
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext friends@a(who: string);
    collection int spotted@a(who: string);
    fact friends@a("carol");
    fact friends@a("dave");
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext seen@b(who: string);
    fact seen@b("carol");
    fact seen@b("erin");
  )").ok());
  Result<uint64_t> rule = a->AddRuleText(
      "spotted@a($w) :- friends@a($w), seen@b($w)");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_TRUE(
      a->engine().catalog().Get("spotted")->Contains({S("carol")}));

  ASSERT_TRUE(a->engine().RemoveRule(*rule).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
}

TEST(PropagationOracleTest, DelegationRetractDrainsContribution) {
  RunScenario(DelegationRetractScenario);

  System system;
  DelegationRetractScenario(system, PeerOptions{});
  EXPECT_EQ(system.GetPeer("a")->engine().catalog().Get("spotted")->size(),
            0u);
  // The residual at b is gone too.
  for (const InstalledRule* r : system.GetPeer("b")->engine().rules()) {
    EXPECT_EQ(r->delegation_key, 0u);
  }
}

// Total loss on the propagation path, then heal + touch: the receiver
// must repair to the true view — the next change exposes the version
// gap and a resync snapshot closes it.
void LossyThenHealScenario(System& system, PeerOptions mode) {
  Peer* a = system.CreatePeer("a", mode);
  Peer* hub = system.CreatePeer("hub", mode);
  ASSERT_TRUE(hub->LoadProgramText(
      "collection int board@hub(x: int);").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
    rule mirror@hub($x) :- data@a($x);
  )").ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));

  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "hub", dead);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(a->Insert(Fact("data", "a", {I(i)})).ok());
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* board = hub->engine().catalog().Get("board");
  ASSERT_TRUE(board == nullptr || board->empty());  // everything lost
  EXPECT_EQ(StaleViews(system), std::vector<std::string>{"board@hub"});

  system.network().SetLink("a", "hub", LinkConfig{});
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(8)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  // mirror@hub is extensional (auto-declared by the first update), so
  // the reference reads it rather than deriving it: assert it here.
  const Relation* mirror = hub->engine().catalog().Get("mirror");
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->size(), 9u);
}

TEST(PropagationOracleTest, LossHealsOnNextChange) {
  RunScenario(LossyThenHealScenario);

  System system;
  LossyThenHealScenario(system, PeerOptions{});
  Peer* hub = system.GetPeer("hub");
  EXPECT_EQ(hub->engine().catalog().Get("board")->size(), 9u);
  // And the repair really went through the gap->resync path.
  EXPECT_GE(hub->engine().propagation_counters().resyncs_requested, 1u);
}

// Every message delivered twice: version gates must drop the replayed
// deltas, and install/retract/delete messages are idempotent.
TEST(PropagationOracleTest, DuplicatingLinksConvergeIdentically) {
  SystemOptions duplicating;
  duplicating.default_link.duplicate_probability = 1.0;

  EXPECT_EQ(RunScenario(OverlappingViewScenario),
            RunScenario(OverlappingViewScenario, duplicating));
  EXPECT_EQ(RunScenario(DelegationRetractScenario),
            RunScenario(DelegationRetractScenario, duplicating));
}

// The point of the whole protocol: after a view converged, a one-tuple
// change costs the same wire bytes whether the view holds 10 tuples or
// 500 — O(change), not O(view).
TEST(PropagationOracleTest, IncrementalChangeShipsChangeNotView) {
  auto build = [](System& system, int64_t view_size) {
    Peer* a = system.CreatePeer("a");
    Peer* hub = system.CreatePeer("hub");
    ASSERT_TRUE(hub->LoadProgramText(
        "collection int board@hub(x: int);").ok());
    ASSERT_TRUE(a->LoadProgramText(R"(
      collection ext data@a(x: int);
      rule board@hub($x) :- data@a($x);
    )").ok());
    for (int64_t i = 0; i < view_size; ++i) {
      ASSERT_TRUE(a->Insert(Fact("data", "a", {I(i)})).ok());
    }
    ASSERT_TRUE(QuiesceAndMatchReference(system));
  };

  auto change_bytes = [&](int64_t view_size) {
    System system;
    build(system, view_size);
    NetworkCounters before(system.network());
    EXPECT_TRUE(
        system.GetPeer("a")->Insert(Fact("data", "a", {I(1000)})).ok());
    EXPECT_TRUE(QuiesceAndMatchReference(system));
    return (NetworkCounters(system.network()) - before).bytes_sent;
  };

  uint64_t small_view = change_bytes(10);
  uint64_t large_view = change_bytes(500);
  EXPECT_GT(small_view, 0u);
  EXPECT_EQ(small_view, large_view);

  // And the per-engine telemetry attributes it: the initial view
  // shipped as 500 delta inserts.
  System system;
  build(system, 500);
  const PropagationCounters& pc =
      system.GetPeer("a")->engine().propagation_counters();
  EXPECT_EQ(pc.deltas_shipped, 1u);
  EXPECT_EQ(pc.delta_inserts_shipped, 500u);
}

// Regression (ISSUE PR4): the ship-once suppression of remote deletes
// must lift when the same fact is re-shipped as an insert. Before the
// fix, a fact deleted, re-asserted through a fresh contribution, then
// deleted again never re-shipped the delete — the receiver kept the
// zombie fact forever.
TEST(PropagationOracleTest, RemoteDeleteReshipsAfterInsertReship) {
  System system;
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext src@a(x: int);
    collection ext kill@a(x: int);
    rule p@b($x) :- src@a($x);
    rule -p@b($x) :- src@a($x), kill@a($x);
  )").ok());
  // p@b is extensional state written by a's rules; the view over it
  // gives the reference something to check at every quiescent point.
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext p@b(x: int);
    collection int seen@b(x: int);
    rule seen@b($x) :- p@b($x);
  )").ok());
  const Relation* p = b->engine().catalog().Get("p");

  // Ship p(1), then delete it through the deletion rule.
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_TRUE(p->Contains({I(1)}));
  ASSERT_TRUE(a->Insert(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_FALSE(p->Contains({I(1)}));

  // Drain the contribution, then re-assert: p(1) ships as an
  // insert again, which must clear the delete suppression.
  ASSERT_TRUE(a->Remove(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(a->Remove(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_TRUE(p->Contains({I(1)}));

  // Second deletion of the same fact: must ship (and delete) again.
  ASSERT_TRUE(a->Insert(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_FALSE(p->Contains({I(1)}));
}

// Companion regression: a resync *snapshot* also re-ships facts as
// inserts, so it must lift delete suppression the same way organic
// contribution traffic does — otherwise a receiver repaired through a
// snapshot keeps a zombie fact whose deletion verdict never re-ships.
TEST(PropagationOracleTest, ResyncSnapshotAlsoLiftsDeleteSuppression) {
  System system;
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext src@a(x: int);
    collection ext kill@a(x: int);
    rule p@b($x) :- src@a($x);
    rule -p@b($x) :- src@a($x), kill@a($x);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext p@b(x: int);
    collection int seen@b(x: int);
    rule seen@b($x) :- p@b($x);
  )").ok());
  const Relation* p = b->engine().catalog().Get("p");

  // p(1) shipped and then deleted; the suppression entry is armed and
  // the contribution still carries p(1) (src(1) holds).
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_TRUE(a->Insert(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_FALSE(p->Contains({I(1)}));

  // Lose a frame, then heal: the next change exposes the gap, b
  // resyncs, and the snapshot re-delivers p(1) among the rest.
  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "b", dead);
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(2)})).ok());
  // p@b is behind, but it is extensional: b's view over it is
  // consistent with what b holds, so the reference still agrees.
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_FALSE(p->Contains({I(2)}));
  system.network().SetLink("a", "b", LinkConfig{});
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(3)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));

  // The snapshot resurrected p(1) at b; the re-armed deletion verdict
  // must have shipped right behind it.
  EXPECT_TRUE(p->Contains({I(2)}));
  EXPECT_TRUE(p->Contains({I(3)}));
  EXPECT_FALSE(p->Contains({I(1)}));
  EXPECT_GE(b->engine().propagation_counters().resyncs_requested, 1u);
}

// Stream heartbeats (ROADMAP): a contribution stream that goes silent
// right after a dropped frame stays stale only until the next heartbeat
// — the version-only probe exposes the gap, the receiver requests a
// resync, and the snapshot repairs the view without any organic
// traffic on the stream.
TEST(PropagationOracleTest, HeartbeatBoundsStalenessAfterSilentLoss) {
  SystemOptions opts;
  opts.heartbeat_interval_rounds = 4;
  System system(opts);
  Peer* a = system.CreatePeer("a");
  Peer* hub = system.CreatePeer("hub");
  ASSERT_TRUE(hub->LoadProgramText(
      "collection int board@hub(x: int);").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  const Relation* board = hub->engine().catalog().Get("board");
  ASSERT_EQ(board->size(), 1u);

  // Lose exactly the last frame of the stream, then go silent.
  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "hub", dead);
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(2)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_EQ(board->size(), 1u);  // receiver is stale and doesn't know
  EXPECT_EQ(StaleViews(system), std::vector<std::string>{"board@hub"});
  system.network().SetLink("a", "hub", LinkConfig{});

  // No organic traffic follows. Within one heartbeat interval plus the
  // resync round trip the receiver must repair itself.
  size_t heartbeats = 0;
  for (int round = 0; round < 12 && board->size() != 2u; ++round) {
    heartbeats += system.RunRound().heartbeats_sent;
  }
  EXPECT_EQ(board->size(), 2u);
  EXPECT_GE(heartbeats, 1u);
  EXPECT_GE(hub->engine().propagation_counters().heartbeat_gaps_detected,
            1u);
  EXPECT_GE(a->engine().propagation_counters().heartbeats_shipped, 1u);

  // Heartbeats are pure observation: once the streams agree they create
  // no lasting work — no further resyncs fire and the system keeps
  // reaching quiescence despite the periodic probes.
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  uint64_t resyncs_after_repair =
      hub->engine().propagation_counters().resyncs_requested;
  for (int i = 0; i < 8; ++i) (void)system.RunRound();
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(hub->engine().propagation_counters().resyncs_requested,
            resyncs_after_repair);
  EXPECT_EQ(board->size(), 2u);
}

// Regression: a stream whose every frame was lost and whose
// contribution then netted out to empty repairs through an *empty*
// snapshot to a relation the receiver never learned about. The empty
// snapshot must still commit its version — otherwise the receiver's
// applied version stays behind forever and every heartbeat re-requests
// the same resync, round after round.
TEST(PropagationOracleTest, EmptySnapshotToUnknownRelationCommitsVersion) {
  SystemOptions opts;
  opts.heartbeat_interval_rounds = 3;
  System system(opts);
  Peer* a = system.CreatePeer("a", PeerOptions{});
  Peer* hub = system.CreatePeer("hub", PeerOptions{});
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());

  // Every frame of the stream is lost; the contribution then empties,
  // so the sender's memory is "version 2, zero tuples" while hub never
  // auto-declared board at all.
  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "hub", dead);
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  ASSERT_TRUE(a->Remove(Fact("data", "a", {I(1)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  system.network().SetLink("a", "hub", LinkConfig{});
  ASSERT_EQ(hub->engine().catalog().Get("board"), nullptr);

  // First heartbeat exposes the gap; the (empty) snapshot must settle
  // the stream so later heartbeats stay silent.
  for (int i = 0; i < 8; ++i) (void)system.RunRound();
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  uint64_t resyncs_after_repair =
      hub->engine().propagation_counters().resyncs_requested;
  EXPECT_GE(resyncs_after_repair, 1u);
  for (int i = 0; i < 9; ++i) (void)system.RunRound();
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(hub->engine().propagation_counters().resyncs_requested,
            resyncs_after_repair);
}

}  // namespace
}  // namespace wdl
