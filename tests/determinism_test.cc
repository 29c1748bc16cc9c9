#include <gtest/gtest.h>

#include "runtime/system.h"
#include "support/fixture.h"
#include "support/rng_check.h"
#include "wepic/wepic.h"

namespace wdl {
namespace {

// Global invariants of the distributed runtime, run against the full
// Wepic workload: determinism across identical runs, idempotence of
// extra rounds, and seed-independence of the *converged state* (the
// network schedule may differ; the fixpoint must not).

// Guard: every seed below is only meaningful while the RNG reproduces
// its golden sequence (the network simulator draws from it).
TEST(DeterminismRngGuard, GeneratorMatchesGoldenSequence) {
  EXPECT_TRUE(test::CheckRngGoldenSequence());
}

WepicOptions Seeded(uint64_t network_seed) {
  WepicOptions options;
  options.network_seed = network_seed;
  return options;
}

std::string GlobalStateFingerprint(WepicApp& app) {
  return test::GlobalStateFingerprint(app.system());
}

void RunWorkload(WepicApp& app) {
  ASSERT_TRUE(app.SetupConference().ok());
  ASSERT_TRUE(app.AddAttendee("Emilien").ok());
  ASSERT_TRUE(app.AddAttendee("Jules").ok());
  app.attendee("Emilien")->gate().TrustPeer("Jules");
  app.attendee("Jules")->gate().TrustPeer("Emilien");
  ASSERT_TRUE(app.UploadPicture("Emilien", 1, "sea.jpg", "b1").ok());
  ASSERT_TRUE(app.UploadPicture("Jules", 2, "dinner.jpg", "b2").ok());
  ASSERT_TRUE(app.AuthorizeFacebook("Emilien", 1).ok());
  ASSERT_TRUE(app.SelectAttendee("Jules", "Emilien").ok());
  ASSERT_TRUE(app.RatePicture("Emilien", 1, 5).ok());
  ASSERT_TRUE(app.SetCommunicationProtocol("Emilien", "email").ok());
  ASSERT_TRUE(app.SelectPicture("Jules", "dinner.jpg", 2, "Jules").ok());
  ASSERT_TRUE(app.Converge().ok());
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalGlobalState) {
  WepicApp a(Seeded(test::FixedTestSeed(0)));
  WepicApp b(Seeded(test::FixedTestSeed(0)));
  RunWorkload(a);
  RunWorkload(b);
  EXPECT_EQ(GlobalStateFingerprint(a), GlobalStateFingerprint(b));
  EXPECT_EQ(a.system().network().stats().messages_submitted,
            b.system().network().stats().messages_submitted);
  EXPECT_EQ(a.system().network().stats().bytes_sent,
            b.system().network().stats().bytes_sent);
}

TEST(DeterminismTest, ConvergedStateIsSeedIndependent) {
  // Different seeds may schedule deliveries differently, but the
  // converged relations and programs must agree (confluence of the
  // monotone core under reordering).
  WepicApp a(Seeded(test::FixedTestSeed(1)));
  WepicApp b(Seeded(test::FixedTestSeed(2)));
  RunWorkload(a);
  RunWorkload(b);
  EXPECT_EQ(GlobalStateFingerprint(a), GlobalStateFingerprint(b));
}

TEST(DeterminismTest, ExtraRoundsAreIdempotent) {
  WepicApp app;
  RunWorkload(app);
  std::string before = GlobalStateFingerprint(app);
  for (int i = 0; i < 20; ++i) app.system().RunRound();
  EXPECT_EQ(GlobalStateFingerprint(app), before);
}

TEST(DeterminismTest, Paper2013DialectRunsTheFullDemo) {
  // The entire Wepic application is negation-free, so it must run
  // unchanged under the paper-faithful dialect.
  WepicOptions options;
  options.engine.dialect = Dialect::kPaper2013;
  WepicApp app(options);
  RunWorkload(app);
  EXPECT_EQ(app.sigmod()->engine().catalog().Get("pictures")->size(), 2u);
  EXPECT_TRUE(app.facebook().GroupHasPicture(kFacebookGroup, 1));
}

TEST(DeterminismTest, CompiledPlansMatchInterpreterOracle) {
  // The compiled-plan executor against the seed AST interpreter over
  // the full distributed workload — delegation splits, ACL gating,
  // wrappers, deferred updates. The converged global state must be
  // identical (see also the per-program goldens in plan_test).
  WepicOptions interpreter_options;
  interpreter_options.engine.use_compiled_plans = false;
  WepicApp interpreted(interpreter_options);
  WepicApp compiled;  // default engine options: compiled plans
  RunWorkload(interpreted);
  RunWorkload(compiled);
  EXPECT_EQ(GlobalStateFingerprint(interpreted),
            GlobalStateFingerprint(compiled));
}

TEST(DeterminismTest, NaiveModeReachesSameGlobalState) {
  WepicOptions naive_options;
  naive_options.engine.mode = EvalMode::kNaive;
  WepicApp naive_app(naive_options);
  WepicApp semi_app;
  RunWorkload(naive_app);
  RunWorkload(semi_app);
  EXPECT_EQ(GlobalStateFingerprint(naive_app),
            GlobalStateFingerprint(semi_app));
}

}  // namespace
}  // namespace wdl
