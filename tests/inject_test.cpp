// Fault injection (src/inject/): the budget ledger and its environment
// floor, the fault-action label encoding, the prefix-checkable FD
// clauses used under evolving patterns, the scenario validation rules
// for the injection modes, and the two end-to-end acceptance anchors —
// crash-timing exploration finds the seeded coordinator-crash bug that
// scripted crashes provably miss, and register atomicity survives lossy
// links through the quasi-reliable retransmission wrapper.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "explore/explorer.h"
#include "explore/scenario.h"
#include "fd/history_checker.h"
#include "inject/fault_plan.h"
#include "sim/failure_pattern.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace wfd {
namespace {

using explore::Explorer;
using explore::SearchConfig;
using explore::ExploreReport;
using explore::ScenarioFactory;
using explore::ScenarioOptions;
using inject::CrashMode;
using inject::FaultPlan;
using inject::FaultState;
using sim::FailurePattern;
using sim::FdSampleRecord;
using sim::ReplayScheduler;
using sim::StepChoice;

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlanTest, AnyCoversEveryInjectionMode) {
  FaultPlan p;
  EXPECT_FALSE(p.any());
  p.crash_mode = CrashMode::kScript;  // Scripted crashes are not injection.
  EXPECT_FALSE(p.any());
  p.crash_mode = CrashMode::kExplore;
  EXPECT_TRUE(p.any());
  p.crash_mode = CrashMode::kNone;
  p.drop_budget = 1;
  EXPECT_TRUE(p.any());
  p.drop_budget = 0;
  p.dup_budget = 2;
  EXPECT_TRUE(p.any());
}

TEST(FaultStateTest, CrashBudgetAndEnvironmentFloor) {
  FaultPlan plan;
  plan.crash_mode = CrashMode::kExplore;
  plan.crash_budget = 2;
  plan.min_alive = 2;  // The Σ-majority floor at n = 3.
  FaultState st(plan);
  st.begin_run(3);

  FailurePattern f(3);
  EXPECT_TRUE(st.may_crash(0, f, 5));
  EXPECT_TRUE(st.may_crash(2, f, 5));

  // Crash p0: the ledger and the pattern both advance.
  f.crash_at(0, 5);
  st.note_crash();
  EXPECT_EQ(st.crashes(), 1);
  // p0 is already crashed; crashing anyone else would leave 1 < 2 alive.
  EXPECT_FALSE(st.may_crash(0, f, 6));
  EXPECT_FALSE(st.may_crash(1, f, 6));
  EXPECT_FALSE(st.may_crash(2, f, 6));

  // begin_run resets the ledger for the next exploration run.
  st.begin_run(3);
  EXPECT_EQ(st.crashes(), 0);
  EXPECT_TRUE(st.may_crash(0, FailurePattern(3), 0));
}

TEST(FaultStateTest, BudgetExhaustionStopsCrashesBeforeTheFloorDoes) {
  FaultPlan plan;
  plan.crash_mode = CrashMode::kExplore;
  plan.crash_budget = 1;
  plan.min_alive = 1;
  FaultState st(plan);
  st.begin_run(4);
  FailurePattern f(4);
  EXPECT_TRUE(st.may_crash(1, f, 0));
  f.crash_at(1, 0);
  st.note_crash();
  // Three processes still alive and the floor is 1, but the budget is
  // spent: no further crash may be offered.
  EXPECT_FALSE(st.may_crash(2, f, 1));
}

TEST(FaultStateTest, ScriptModeNeverOffersCrashes) {
  FaultPlan plan;
  plan.crash_mode = CrashMode::kScript;
  plan.crash_budget = 3;
  FaultState st(plan);
  st.begin_run(3);
  EXPECT_FALSE(st.may_crash(0, FailurePattern(3), 0));
}

TEST(FaultStateTest, LossBudgetsArePerDirectedLink) {
  FaultPlan plan;
  plan.drop_budget = 1;
  plan.dup_budget = 1;
  FaultState st(plan);
  st.begin_run(3);

  EXPECT_TRUE(st.may_drop(0, 1));
  st.note_drop(0, 1);
  EXPECT_EQ(st.drops(), 1);
  // The 0->1 budget is spent; the reverse link and other links are not.
  EXPECT_FALSE(st.may_drop(0, 1));
  EXPECT_TRUE(st.may_drop(1, 0));
  EXPECT_TRUE(st.may_drop(0, 2));

  EXPECT_TRUE(st.may_dup(0, 1));  // Dup budget is independent of drop.
  st.note_dup(0, 1);
  EXPECT_FALSE(st.may_dup(0, 1));
  EXPECT_TRUE(st.may_dup(2, 1));

  st.begin_run(3);
  EXPECT_TRUE(st.may_drop(0, 1));
  EXPECT_TRUE(st.may_dup(0, 1));
  EXPECT_EQ(st.drops(), 0);
  EXPECT_EQ(st.dups(), 0);
}

// ------------------------------------------------- fault-action labels

TEST(LabelTest, FaultActionsRoundTripAndPlainLabelsAreUnchanged) {
  const std::uint64_t mid = (std::uint64_t{1} << 40) + 12345;
  for (const auto action :
       {StepChoice::Action::kDeliver, StepChoice::Action::kDrop,
        StepChoice::Action::kDup, StepChoice::Action::kCrash}) {
    const std::uint64_t l = ReplayScheduler::label(2, mid, action);
    EXPECT_EQ(ReplayScheduler::label_process(l), 2);
    EXPECT_EQ(ReplayScheduler::label_message(l), mid);
    EXPECT_EQ(ReplayScheduler::label_action(l), action);
    EXPECT_EQ(ReplayScheduler::label_is_fault(l),
              action != StepChoice::Action::kDeliver);
  }
  // A deliver label is byte-identical to the pre-fault two-arg encoding,
  // which is what keeps v1-era decision logs meaningful for plain runs.
  EXPECT_EQ(ReplayScheduler::label(2, mid, StepChoice::Action::kDeliver),
            ReplayScheduler::label(2, mid));
  // Distinct actions on the same (process, message) are distinct labels.
  EXPECT_NE(ReplayScheduler::label(0, 7, StepChoice::Action::kDrop),
            ReplayScheduler::label(0, 7, StepChoice::Action::kDup));
}

// -------------------------------------------- prefix-checkable clauses

FdSampleRecord fs_sample(ProcessId p, Time t, fd::FsColor c) {
  FdSampleRecord s;
  s.p = p;
  s.t = t;
  s.value.fs = c;
  return s;
}

FdSampleRecord psi_sample(ProcessId p, Time t, fd::PsiValue v) {
  FdSampleRecord s;
  s.p = p;
  s.t = t;
  s.value.psi = v;
  return s;
}

TEST(FsPrefixTest, GreenAlwaysLegalRedOnlyAfterFailure) {
  FailurePattern clean(3);
  std::vector<FdSampleRecord> samples = {fs_sample(0, 1, fd::FsColor::kGreen),
                                         fs_sample(1, 4, fd::FsColor::kGreen)};
  EXPECT_TRUE(fd::check_fs_prefix(samples, clean).ok);

  samples.push_back(fs_sample(2, 6, fd::FsColor::kRed));
  const auto bad = fd::check_fs_prefix(samples, clean);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.violation.find("red"), std::string::npos) << bad.violation;

  // The same samples are legal once a crash precedes the red output —
  // and a crash injected later ("now" = 6) never legalises nothing
  // retroactively because red-at-6 needs failure_by(6).
  FailurePattern crashed(3);
  crashed.crash_at(1, 5);
  EXPECT_TRUE(fd::check_fs_prefix(samples, crashed).ok);
  FailurePattern late(3);
  late.crash_at(1, 7);
  EXPECT_FALSE(fd::check_fs_prefix(samples, late).ok);
}

TEST(FsPrefixTest, MissingComponentIsAViolation) {
  FdSampleRecord s;
  s.p = 0;
  s.t = 1;  // No fs component set.
  EXPECT_FALSE(fd::check_fs_prefix({s}, FailurePattern(2)).ok);
}

TEST(PsiPrefixTest, LegalBottomThenOmegaSigmaPrefix) {
  FailurePattern f(3);
  const auto os = fd::PsiValue::omega_sigma(0, ProcessSet{0, 1});
  const std::vector<FdSampleRecord> samples = {
      psi_sample(0, 1, fd::PsiValue::bottom()),
      psi_sample(1, 2, fd::PsiValue::bottom()),
      psi_sample(0, 3, os),
      psi_sample(1, 4, os),
  };
  EXPECT_TRUE(fd::check_psi_prefix(samples, f).ok);
}

TEST(PsiPrefixTest, BranchDiscipline) {
  FailurePattern clean(3);
  const auto os = fd::PsiValue::omega_sigma(0, ProcessSet{0, 1});

  // The FS branch may not open before any failure has occurred, even
  // with a green signal.
  EXPECT_FALSE(
      fd::check_psi_prefix(
          {psi_sample(0, 2, fd::PsiValue::failure_signal(fd::FsColor::kGreen))},
          clean)
          .ok);

  FailurePattern crashed(3);
  crashed.crash_at(2, 1);
  // With the failure in place, the FS branch (green then red) is legal.
  EXPECT_TRUE(
      fd::check_psi_prefix(
          {psi_sample(0, 2, fd::PsiValue::failure_signal(fd::FsColor::kGreen)),
           psi_sample(1, 3, fd::PsiValue::failure_signal(fd::FsColor::kRed))},
          crashed)
          .ok);

  // Different processes may never pick different branches.
  const auto diverged = fd::check_psi_prefix(
      {psi_sample(0, 2, os),
       psi_sample(1, 3, fd::PsiValue::failure_signal(fd::FsColor::kRed))},
      crashed);
  EXPECT_FALSE(diverged.ok);
  EXPECT_NE(diverged.violation.find("branch"), std::string::npos)
      << diverged.violation;

  // Bottom after a switch means the output regressed: illegal.
  EXPECT_FALSE(fd::check_psi_prefix({psi_sample(0, 2, os),
                                     psi_sample(0, 3, fd::PsiValue::bottom())},
                                    crashed)
                   .ok);
}

// --------------------------------------------------- scenario validation

TEST(ScenarioValidateTest, InjectionModeRules) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;

  opt.crash_mode = "explore";
  opt.crashes = 1;
  EXPECT_EQ(ScenarioFactory::validate(opt), "");

  ScenarioOptions pinned = opt;
  pinned.crash_time = 4;  // Scripted times contradict explored timing.
  EXPECT_NE(ScenarioFactory::validate(pinned), "");

  ScenarioOptions typo = opt;
  typo.crash_mode = "explor";
  EXPECT_NE(ScenarioFactory::validate(typo), "");

  ScenarioOptions lossy;
  lossy.problem = "register";
  lossy.loss_drops = -1;
  EXPECT_NE(ScenarioFactory::validate(lossy), "");
  lossy.loss_drops = 1;
  EXPECT_EQ(ScenarioFactory::validate(lossy), "");

  // The most hostile detector: per-query histories over the pattern
  // that explored crashes reconstruct. It never stabilizes.
  ScenarioOptions adv;
  adv.problem = "qc";
  adv.crash_mode = "explore";
  adv.crashes = 1;
  EXPECT_EQ(ScenarioFactory::validate(adv), "");
  adv.stabilization = 10;
  EXPECT_NE(ScenarioFactory::validate(adv), "");
}

// --------------------------------- seeded crash-timing bug (acceptance)

TEST(CrashTimingBugTest, ExploredCrashTimingFindsTheBug) {
  ScenarioOptions opt;
  opt.problem = "consensus-crash-bug";
  opt.n = 3;
  opt.crash_mode = "explore";
  opt.crashes = 1;
  SearchConfig cfg;
  cfg.scenario = opt;
  Explorer ex(ScenarioFactory(opt).builder(), cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value())
      << "crash-timing exploration missed the seeded bug";
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
  EXPECT_GT(rep.stats.injected_crashes, 0u);
}

TEST(CrashTimingBugTest, ScriptedEarlyCrashProvablyMissesTheBug) {
  // The coordinator needs at least three own steps before it can decide,
  // so a scripted crash at t = 2 always lands in the safe pre-decide
  // window: the whole tree is clean. This is the contrast run that
  // justifies crash-timing exploration.
  ScenarioOptions opt;
  opt.problem = "consensus-crash-bug";
  opt.n = 3;
  opt.crashes = 1;
  opt.crash_time = 2;
  SearchConfig cfg;
  cfg.scenario = opt;
  Explorer ex(ScenarioFactory(opt).builder(), cfg);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.cex.has_value())
      << rep.cex->violation.property << ": " << rep.cex->violation.message;
  EXPECT_TRUE(rep.stats.exhausted);
  EXPECT_EQ(rep.stats.injected_crashes, 0u);
}

TEST(CrashTimingBugTest, CrashFreeTreeIsClean) {
  ScenarioOptions opt;
  opt.problem = "consensus-crash-bug";
  opt.n = 3;
  SearchConfig cfg;
  cfg.scenario = opt;
  Explorer ex(ScenarioFactory(opt).builder(), cfg);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.cex.has_value());
  EXPECT_TRUE(rep.stats.exhausted);
}

// ------------------------------------ lossy links + quasi-reliable (acceptance)

TEST(LossyLinkTest, RegisterAtomicityHoldsThroughRetransmission) {
  ScenarioOptions opt;
  opt.problem = "register";
  opt.n = 3;
  opt.loss_drops = 1;
  opt.reg_ops = 1;
  opt.reg_readers = 1;
  opt.max_steps = 30;
  SearchConfig eo;
  eo.scenario = opt;
  eo.budget_states = 8000;
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.cex.has_value())
      << rep.cex->violation.property << ": " << rep.cex->violation.message;
  // The adversary really exercised the lossy links.
  EXPECT_GT(rep.stats.injected_drops, 0u);
}

}  // namespace
}  // namespace wfd
