// The reference evaluator itself (tests/support/reference.h): it must
// compute the views the model defines — relation and peer variables,
// schema filtering, stratified negation across peers — and it must
// report a view that differs, naming the tuples. Each case states the
// expected view contents by hand, so the reference is checked against
// the model and not only against the engine it referees.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/system.h"
#include "support/builders.h"
#include "support/reference.h"

namespace wdl {
namespace {

using test::CheckAgainstReference;
using test::I;
using test::MatchesReference;
using test::QuiesceAndMatchReference;
using test::StaleViews;

PeerOptions Trusting() {
  PeerOptions o;
  o.trust_all_delegations = true;
  return o;
}

std::vector<Tuple> Ints(std::initializer_list<int64_t> values) {
  std::vector<Tuple> out;
  for (int64_t v : values) out.push_back({I(v)});
  return out;
}

// $r@$p: the relation and peer an atom reads come from data bound by
// an earlier atom. A non-string binding names nothing.
TEST(ReferenceEvaluatorTest, RelationAndPeerVariablesResolveLeftToRight) {
  System system;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  Peer* c = system.CreatePeer("c", Trusting());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext where@a(rel: any, peer: any);
    collection int all@a(x: int);
    fact where@a("pics", "b");
    fact where@a("pics", "c");
    fact where@a(7, "c");
    rule all@a($x) :- where@a($r, $p), $r@$p($x);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext pics@b(x: int);
    fact pics@b(1); fact pics@b(2);
  )").ok());
  ASSERT_TRUE(c->LoadProgramText(R"(
    collection ext pics@c(x: int);
    fact pics@c(3);
  )").ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(a->engine().catalog().Get("all")->SortedTuples(),
            Ints({1, 2, 3}));
}

// A derived tuple that does not fit the target view's schema is
// dropped, whether it is derived locally or shipped from a remote peer.
TEST(ReferenceEvaluatorTest, TuplesFailingTheViewSchemaAreDropped) {
  System system;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* hub = system.CreatePeer("hub", Trusting());
  ASSERT_TRUE(hub->LoadProgramText(R"(
    collection ext own@hub(x: any);
    collection int typed@hub(x: int);
    fact own@hub(5); fact own@hub("five");
    rule typed@hub($x) :- own@hub($x);
  )").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: any);
    fact data@a(1); fact data@a("one"); fact data@a(2.5);
    rule typed@hub($x) :- data@a($x);
  )").ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(hub->engine().catalog().Get("typed")->SortedTuples(),
            Ints({1, 5}));
}

// Negation reads a view of another peer that is itself fed by
// contributions: the reference evaluates the lower stratum globally
// first.
TEST(ReferenceEvaluatorTest, StratifiedNegationAcrossPeers) {
  System system;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* hub = system.CreatePeer("hub", Trusting());
  ASSERT_TRUE(hub->LoadProgramText(R"(
    collection ext item@hub(x: int);
    collection int muted@hub(x: int);
    collection int shown@hub(x: int);
    fact item@hub(1); fact item@hub(2); fact item@hub(3);
    rule shown@hub($x) :- item@hub($x), not muted@hub($x);
  )").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext mute@a(x: int);
    fact mute@a(2);
    rule muted@hub($x) :- mute@a($x);
  )").ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(hub->engine().catalog().Get("shown")->SortedTuples(),
            Ints({1, 3}));

  ASSERT_TRUE(a->Insert(Fact("mute", "a", {I(3)})).ok());
  ASSERT_TRUE(a->Remove(Fact("mute", "a", {I(2)})).ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(hub->engine().catalog().Get("shown")->SortedTuples(),
            Ints({1, 2}));
}

// A view corrupted behind the engine's back is reported with the exact
// tuples that are missing and unexpected.
TEST(ReferenceEvaluatorTest, ReportsTheViewsAndTuplesThatDiffer) {
  System system;
  Peer* a = system.CreatePeer("a", Trusting());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext edge@a(x: int, y: int);
    collection int tc@a(x: int, y: int);
    fact edge@a(1, 2); fact edge@a(2, 3);
    rule tc@a($x, $y) :- edge@a($x, $y);
    rule tc@a($x, $z) :- edge@a($x, $y), tc@a($y, $z);
  )").ok());
  ASSERT_TRUE(QuiesceAndMatchReference(system));
  EXPECT_EQ(a->engine().catalog().Get("tc")->size(), 3u);

  Relation* tc = a->engine().catalog().Get("tc");
  ASSERT_TRUE(tc->Remove({I(1), I(3)}).ok());
  ASSERT_TRUE(tc->Insert({I(3), I(1)}).ok());
  test::ReferenceReport report = CheckAgainstReference(system);
  ASSERT_TRUE(report.status.ok()) << report.status;
  ASSERT_EQ(report.mismatches.size(), 1u);
  const test::ReferenceMismatch& m = report.mismatches[0];
  EXPECT_EQ(m.PredicateId(), "tc@a");
  EXPECT_EQ(m.missing, (std::vector<Tuple>{{I(1), I(3)}}));
  EXPECT_EQ(m.unexpected, (std::vector<Tuple>{{I(3), I(1)}}));
  EXPECT_EQ(StaleViews(system), std::vector<std::string>{"tc@a"});
  EXPECT_FALSE(MatchesReference(system));
  EXPECT_FALSE(MatchesReference(a->engine()));
}

// A negative cycle through two peers is outside the domain: each
// peer's program stratifies on its own, the union does not, and the
// reference says so instead of reporting a verdict.
TEST(ReferenceEvaluatorTest, RejectsProgramsThatDoNotStratifyGlobally) {
  System system;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext d@a(x: int);
    collection int p@a(x: int);
    rule p@a($x) :- d@a($x), not q@b($x);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext d@b(x: int);
    collection int q@b(x: int);
    rule q@b($x) :- d@b($x), not p@a($x);
  )").ok());
  test::ReferenceReport report = CheckAgainstReference(system);
  EXPECT_FALSE(report.status.ok());
  EXPECT_FALSE(report.ok());
}

// Update rules and deletion rules write extensional state, which the
// reference reads as given; views over that state are still checked.
TEST(ReferenceEvaluatorTest, ExtensionalHeadsAreReadNotDerived) {
  Engine engine("a");
  ASSERT_TRUE(engine.LoadProgram(test::P(R"(
    collection ext src@a(x: int);
    collection ext copy@a(x: int);
    collection int view@a(x: int);
    fact src@a(1); fact src@a(2);
    rule copy@a($x) :- src@a($x);
    rule view@a($x) :- copy@a($x);
  )")).ok());
  test::Settle(&engine);
  EXPECT_TRUE(MatchesReference(engine));
  EXPECT_EQ(engine.catalog().Get("view")->SortedTuples(), Ints({1, 2}));

  // Taking a tuple out of `copy` behind the engine's back leaves `view`
  // stale against the state the reference reads.
  ASSERT_TRUE(engine.catalog().Get("copy")->Remove({I(2)}).ok());
  EXPECT_FALSE(MatchesReference(engine));
}

}  // namespace
}  // namespace wdl
