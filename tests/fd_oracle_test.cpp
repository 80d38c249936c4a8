// Every oracle must produce histories satisfying its formal definition,
// across environments, seeds and schedulers — checked with the
// history-checker implementations of the Section 2 definitions. Omega,
// Sigma, Psi and FS are the seeded ChoiceOracle (both Sigma menus, Psi
// with its branch chosen and forced each way).
#include <gtest/gtest.h>

#include <memory>

#include "fd/history_checker.h"
#include "sim/environment.h"
#include "test_util.h"

namespace wfd {
namespace {

struct SweepParam {
  std::uint64_t seed;
  int crashes;
};

class OracleSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static constexpr int kN = 5;
  static constexpr Time kHorizon = 6000;
  static constexpr Time kStab = 400;

  sim::FailurePattern sample_pattern() {
    Rng rng(GetParam().seed * 7919 + 13);
    sim::MaxCrashesEnvironment env(kN, GetParam().crashes);
    // Crashes land in the first half so eventual clauses have witnesses.
    auto f = env.sample(rng, kHorizon / 2);
    return f;
  }

  /// `f` with more processes crashing at kHorizon / 2 until correct(F)
  /// is a minority.
  static sim::FailurePattern minority_correct(sim::FailurePattern f) {
    for (ProcessId p = 0; 2 * f.correct().size() > kN; ++p) {
      if (f.correct().contains(p)) f.crash_at(p, kHorizon / 2);
    }
    return f;
  }

  /// `f` restricted to its first crashes that keep correct(F) a
  /// majority.
  static sim::FailurePattern majority_correct(const sim::FailurePattern& f) {
    sim::FailurePattern out(kN);
    for (ProcessId p : f.faulty().members()) {
      if (2 * (out.faulty().size() + 1) >= kN) break;
      out.crash_at(p, f.crash_time(p));
    }
    return out;
  }

  std::vector<sim::FdSampleRecord> run_oracle(
      std::unique_ptr<fd::Oracle> oracle, const sim::FailurePattern& f) {
    sim::SimConfig cfg;
    cfg.n = kN;
    cfg.max_steps = kHorizon;
    cfg.seed = GetParam().seed;
    cfg.record_fd_samples = true;
    auto s = test::nop_sim(cfg, f, std::move(oracle), test::random_sched());
    s.run();
    return s.trace().samples();
  }
};

TEST_P(OracleSweep, OmegaHistoryIsLegal) {
  const auto f = sample_pattern();
  const auto samples = run_oracle(test::omega(), f);
  const auto r = fd::check_omega_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

// Under a minority-correct pattern Sigma draws from its common-core
// menu: every quorum contains one core process.
TEST_P(OracleSweep, SigmaCommonCoreHistoryIsLegal) {
  const auto f = minority_correct(sample_pattern());
  const auto samples = run_oracle(test::sigma_oracle(), f);
  const auto r = fd::check_sigma_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
  ProcessSet core = ProcessSet::full(kN);
  for (const auto& s : samples) {
    ASSERT_TRUE(s.value.sigma.has_value());
    core = core.set_intersection(*s.value.sigma);
  }
  EXPECT_FALSE(core.empty()) << "no common core";
}

// The common-core menu's other quorum is the pool: every process before
// stabilization, the correct ones from it on.
TEST_P(OracleSweep, SigmaAllThenCorrectHistoryIsLegal) {
  const auto f = minority_correct(sample_pattern());
  const auto samples = run_oracle(test::sigma_oracle(kStab), f);
  const auto r = fd::check_sigma_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
  for (const auto& s : samples) {
    const ProcessSet pool = s.t < kStab ? ProcessSet::full(kN) : f.correct();
    EXPECT_TRUE(s.value.sigma->size() == 1 || *s.value.sigma == pool)
        << "t=" << s.t;
  }
}

// Under a majority-correct pattern Sigma draws minimal majorities.
TEST_P(OracleSweep, SigmaMajorityHistoryIsLegal) {
  const auto f = majority_correct(sample_pattern());
  const auto samples = run_oracle(test::sigma_oracle(), f);
  const auto r = fd::check_sigma_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
  for (const auto& s : samples) EXPECT_EQ(s.value.sigma->size(), kN / 2 + 1);
}

TEST_P(OracleSweep, FsHistoryIsLegal) {
  const auto f = sample_pattern();
  const auto samples = run_oracle(test::fs_oracle(), f);
  const auto r = fd::check_fs_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(OracleSweep, PsiHistoryIsLegal) {
  const auto f = sample_pattern();
  const auto samples = run_oracle(test::psi_oracle(), f);
  const auto r = fd::check_psi_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(OracleSweep, PsiForcedFsBranchRequiresFailure) {
  auto f = sample_pattern();
  if (f.faulty().empty()) {
    f.crash_at(0, 100);  // The FS branch needs a failure.
  }
  const auto samples = run_oracle(test::psi_oracle(test::PsiBranch::kFs), f);
  const auto r = fd::check_psi_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
  for (const auto& s : samples) {
    EXPECT_NE(s.value.psi->mode, fd::PsiValue::Mode::kOmegaSigma);
    if (s.value.psi->mode == fd::PsiValue::Mode::kFs) {
      EXPECT_TRUE(f.failure_by(s.t)) << "t=" << s.t;
    }
  }
}

TEST_P(OracleSweep, PsiForcedOmegaSigmaBranch) {
  const auto f = sample_pattern();
  const auto samples =
      run_oracle(test::psi_oracle(test::PsiBranch::kOmegaSigma), f);
  const auto r = fd::check_psi_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
  for (const auto& s : samples) {
    EXPECT_NE(s.value.psi->mode, fd::PsiValue::Mode::kFs);
  }
}

// Figure 2 hands Psi's (Omega, Sigma) branch to an unmodified
// (Omega, Sigma) consensus, so in that mode the omega/sigma components
// carry Psi's own leader and quorum — and are absent otherwise.
TEST_P(OracleSweep, PsiOmegaSigmaModeFillsOmegaAndSigma) {
  const auto f = sample_pattern();
  for (const auto branch :
       {test::PsiBranch::kChosen, test::PsiBranch::kOmegaSigma}) {
    const auto samples = run_oracle(test::psi_oracle(branch), f);
    std::size_t omega_sigma = 0;
    for (const auto& s : samples) {
      const fd::PsiValue& psi = *s.value.psi;
      if (psi.mode != fd::PsiValue::Mode::kOmegaSigma) {
        EXPECT_FALSE(s.value.omega.has_value() || s.value.sigma.has_value());
        continue;
      }
      ++omega_sigma;
      ASSERT_TRUE(s.value.omega.has_value() && s.value.sigma.has_value());
      EXPECT_EQ(*s.value.omega, psi.omega) << "t=" << s.t;
      EXPECT_EQ(*s.value.sigma, psi.sigma) << "t=" << s.t;
    }
    if (branch == test::PsiBranch::kOmegaSigma) {
      EXPECT_GT(omega_sigma, 0u);
    }
  }
}

TEST_P(OracleSweep, TupleOmegaSigmaCarriesBothComponents) {
  const auto f = sample_pattern();
  const auto samples = run_oracle(test::omega_sigma(), f);
  const auto om = fd::check_omega_history(samples, f);
  EXPECT_TRUE(om.ok) << om.violation;
  const auto si = fd::check_sigma_history(samples, f);
  EXPECT_TRUE(si.ok) << si.violation;
}

TEST_P(OracleSweep, PerfectHistoryIsLegal) {
  const auto f = sample_pattern();
  const auto samples =
      run_oracle(std::make_unique<fd::PerfectOracle>(), f);
  const auto r = fd::check_perfect_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(OracleSweep, EventuallyPerfectConvergesToPerfectBehaviour) {
  const auto f = sample_pattern();
  fd::EventuallyPerfectOracle::Options opt;
  opt.max_stabilization = 400;
  const auto samples =
      run_oracle(std::make_unique<fd::EventuallyPerfectOracle>(opt), f);
  // <>P satisfies <>S's requirements a fortiori.
  const auto r = fd::check_ev_strong_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST_P(OracleSweep, EventuallyStrongHistoryIsLegal) {
  const auto f = sample_pattern();
  fd::EventuallyStrongOracle::Options opt;
  opt.max_stabilization = 400;
  const auto samples =
      run_oracle(std::make_unique<fd::EventuallyStrongOracle>(opt), f);
  const auto r = fd::check_ev_strong_history(samples, f);
  EXPECT_TRUE(r.ok) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleSweep,
    ::testing::Values(SweepParam{1, 0}, SweepParam{2, 0}, SweepParam{3, 1},
                      SweepParam{4, 1}, SweepParam{5, 2}, SweepParam{6, 2},
                      SweepParam{7, 4}, SweepParam{8, 4}, SweepParam{9, 3},
                      SweepParam{10, 4}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "crashes" +
             std::to_string(info.param.crashes);
    });

// The majority Sigma menu is drawn only in majority-correct patterns.
TEST(SigmaMajorityModeTest, LegalWhenMajorityCorrect) {
  sim::FailurePattern f(5);
  f.crash_at(0, 50);
  f.crash_at(1, 300);
  sim::SimConfig cfg;
  cfg.n = 5;
  cfg.max_steps = 6000;
  cfg.seed = 21;
  cfg.record_fd_samples = true;
  auto s = test::nop_sim(
      cfg, f, test::sigma_oracle(400),
      test::random_sched());
  s.run();
  const auto r = fd::check_sigma_history(s.trace().samples(), f);
  EXPECT_TRUE(r.ok) << r.violation;
}

// ------------------------------------------- checker self-tests (negative)

TEST(HistoryCheckerTest, RejectsNonIntersectingSigma) {
  sim::FailurePattern f(4);
  std::vector<sim::FdSampleRecord> samples;
  sim::FdSampleRecord a;
  a.p = 0;
  a.t = 1;
  a.value.sigma = ProcessSet{0, 1};
  sim::FdSampleRecord b;
  b.p = 1;
  b.t = 2;
  b.value.sigma = ProcessSet{2, 3};
  samples = {a, b};
  EXPECT_FALSE(fd::check_sigma_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsSigmaNeverCompleting) {
  sim::FailurePattern f(3);
  f.crash_at(2, 10);
  std::vector<sim::FdSampleRecord> samples;
  for (Time t = 0; t < 40; ++t) {
    sim::FdSampleRecord r;
    r.p = static_cast<ProcessId>(t % 2);
    r.t = t;
    r.value.sigma = ProcessSet{2};  // Forever contains the faulty process.
    samples.push_back(r);
  }
  EXPECT_FALSE(fd::check_sigma_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsFaultyOmegaLeader) {
  sim::FailurePattern f(3);
  f.crash_at(0, 5);
  std::vector<sim::FdSampleRecord> samples;
  for (ProcessId p = 1; p <= 2; ++p) {
    sim::FdSampleRecord r;
    r.p = p;
    r.t = 10 + static_cast<Time>(p);
    r.value.omega = 0;  // Crashed leader.
    samples.push_back(r);
  }
  EXPECT_FALSE(fd::check_omega_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsDivergedOmega) {
  sim::FailurePattern f(2);
  std::vector<sim::FdSampleRecord> samples;
  sim::FdSampleRecord a;
  a.p = 0;
  a.t = 100;
  a.value.omega = 0;
  sim::FdSampleRecord b;
  b.p = 1;
  b.t = 100;
  b.value.omega = 1;
  samples = {a, b};
  EXPECT_FALSE(fd::check_omega_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsPrematureRed) {
  sim::FailurePattern f(2);
  f.crash_at(1, 100);
  std::vector<sim::FdSampleRecord> samples;
  sim::FdSampleRecord a;
  a.p = 0;
  a.t = 50;  // Before the crash.
  a.value.fs = fd::FsColor::kRed;
  samples = {a};
  EXPECT_FALSE(fd::check_fs_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsMissingRedAfterFailure) {
  sim::FailurePattern f(2);
  f.crash_at(1, 10);
  std::vector<sim::FdSampleRecord> samples;
  for (Time t = 0; t < 100; t += 10) {
    sim::FdSampleRecord r;
    r.p = 0;
    r.t = t;
    r.value.fs = fd::FsColor::kGreen;
    samples.push_back(r);
  }
  EXPECT_FALSE(fd::check_fs_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsPsiBranchDisagreement) {
  sim::FailurePattern f(2);
  f.crash_at(1, 1);
  std::vector<sim::FdSampleRecord> samples;
  sim::FdSampleRecord a;
  a.p = 0;
  a.t = 10;
  a.value.psi = fd::PsiValue::failure_signal(fd::FsColor::kRed);
  sim::FdSampleRecord b;
  b.p = 1;
  b.t = 10;
  b.value.psi = fd::PsiValue::omega_sigma(0, ProcessSet{0});
  samples = {a, b};
  EXPECT_FALSE(fd::check_psi_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsPsiFsBranchWithoutFailure) {
  sim::FailurePattern f(2);  // Crash-free.
  std::vector<sim::FdSampleRecord> samples;
  for (ProcessId p = 0; p < 2; ++p) {
    sim::FdSampleRecord r;
    r.p = p;
    r.t = 10;
    r.value.psi = fd::PsiValue::failure_signal(fd::FsColor::kRed);
    samples.push_back(r);
  }
  EXPECT_FALSE(fd::check_psi_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsPsiBottomAfterSwitch) {
  sim::FailurePattern f(1);
  std::vector<sim::FdSampleRecord> samples;
  sim::FdSampleRecord a;
  a.p = 0;
  a.t = 1;
  a.value.psi = fd::PsiValue::omega_sigma(0, ProcessSet{0});
  sim::FdSampleRecord b;
  b.p = 0;
  b.t = 2;
  b.value.psi = fd::PsiValue::bottom();
  samples = {a, b};
  EXPECT_FALSE(fd::check_psi_history(samples, f).ok);
}

TEST(HistoryCheckerTest, RejectsPerfectSuspectingAlive) {
  sim::FailurePattern f(2);
  std::vector<sim::FdSampleRecord> samples;
  sim::FdSampleRecord a;
  a.p = 0;
  a.t = 5;
  a.value.suspected = ProcessSet{1};  // 1 never crashes.
  samples = {a};
  EXPECT_FALSE(fd::check_perfect_history(samples, f).ok);
}

TEST(HistoryCheckerTest, AcceptsTrivialGreenHistoryWhenCrashFree) {
  sim::FailurePattern f(2);
  std::vector<sim::FdSampleRecord> samples;
  for (ProcessId p = 0; p < 2; ++p) {
    sim::FdSampleRecord r;
    r.p = p;
    r.t = 3;
    r.value.fs = fd::FsColor::kGreen;
    samples.push_back(r);
  }
  EXPECT_TRUE(fd::check_fs_history(samples, f).ok);
}

}  // namespace
}  // namespace wfd
