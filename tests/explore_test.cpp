// End-to-end coverage of the exploration subsystem: the DFS explorer
// finds the seeded agreement bug, shrinking preserves and minimizes the
// counterexample, replay files round-trip and re-execute
// deterministically, and the parallel campaign both finds the bug and
// stays clean on the correct protocols.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/option_text.h"
#include "explore/replay_io.h"
#include "explore/scenario.h"
#include "explore/shrink.h"

namespace wfd::explore {
namespace {

ScenarioOptions bug_options() {
  ScenarioOptions opt;
  opt.problem = "consensus-bug";
  opt.n = 3;
  opt.max_steps = 30;
  return opt;
}

TEST(ScenarioTest, ValidateRejectsBadOptions) {
  ScenarioOptions opt;
  opt.problem = "nonsense";
  EXPECT_FALSE(ScenarioFactory::validate(opt).empty());
  opt = ScenarioOptions{};
  opt.n = 3;
  opt.crashes = 2;  // No correct majority.
  EXPECT_FALSE(ScenarioFactory::validate(opt).empty());
  opt = ScenarioOptions{};
  EXPECT_TRUE(ScenarioFactory::validate(opt).empty());
}

TEST(ExplorerTest, FindsSeededAgreementBug) {
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  SearchConfig cfg;
  cfg.scenario = bug_options();
  Explorer ex(build, cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
  EXPECT_GT(rep.stats.nodes, 0u);
  EXPECT_GT(rep.stats.runs, 0u);
}

TEST(ExplorerTest, CleanConsensusHasNoViolationWithinBudget) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 25;
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 20000;
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_FALSE(rep.cex.has_value());
  EXPECT_GT(rep.stats.nodes, 0u);
}

TEST(ExplorerTest, ExhaustsTinyTree) {
  ScenarioOptions opt = bug_options();
  opt.n = 2;
  opt.max_steps = 6;
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 500000;
  eo.stop_at_first = false;  // Keep going past violations.
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_TRUE(rep.stats.exhausted);
  // With n=2 the two processes propose 0 and 1; some interleaving makes
  // them hear different proposals first.
  EXPECT_GT(rep.stats.violations, 0u);
}

TEST(ExplorerTest, SleepSetsPruneWithoutLosingTheBug) {
  ScenarioOptions opt = bug_options();
  opt.max_steps = 9;
  SearchConfig with;
  with.scenario = opt;
  with.max_states = 40000;
  with.stop_at_first = false;
  with.reduction = Reduction::kSleepSets;
  // Pure reduction ablation: keep fingerprints out of the picture.
  with.state_fingerprints = false;
  SearchConfig without = with;
  without.reduction = Reduction::kNone;
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  Explorer a(build, with);
  Explorer b(build, without);
  const ExploreReport ra = a.run();
  const ExploreReport rb = b.run();
  EXPECT_GT(ra.stats.sleep_skips, 0u);
  EXPECT_EQ(rb.stats.sleep_skips, 0u);
  EXPECT_LE(ra.stats.runs, rb.stats.runs);
  EXPECT_GT(ra.stats.violations, 0u);
  EXPECT_GT(rb.stats.violations, 0u);
}

TEST(ExplorerTest, FingerprintPruningFires) {
  ScenarioOptions opt = bug_options();
  opt.max_steps = 12;
  SearchConfig eo;
  eo.scenario = opt;
  eo.max_states = 5000;
  eo.stop_at_first = false;
  // The seeded-bug scenario is fully modular, so the composed
  // Module::encode_state fingerprint is complete and distinct schedules
  // converge onto equal states (e.g. permuted deliveries of equal
  // proposals); pruning must fire within a modest budget.
  Explorer ex(ScenarioFactory(opt).builder(), eo);
  const ExploreReport rep = ex.run();
  EXPECT_GT(rep.stats.fp_prunes, 0u);
}

TEST(ShrinkTest, ShrunkCounterexampleStillReproduces) {
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  SearchConfig cfg;
  cfg.scenario = bug_options();
  Explorer ex(build, cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value());

  const ShrinkResult s =
      shrink(build, rep.cex->decisions, rep.cex->violation.property);
  EXPECT_LE(s.decisions.size(), rep.cex->decisions.size());
  const ReplayOutcome out = run_replay(build, s.decisions);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->property, rep.cex->violation.property);
}

TEST(ReplayTest, ReplayIsDeterministic) {
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  SearchConfig cfg;
  cfg.scenario = bug_options();
  Explorer ex(build, cfg);
  const ExploreReport rep = ex.run();
  ASSERT_TRUE(rep.cex.has_value());
  const ReplayOutcome a = run_replay(build, rep.cex->decisions);
  const ReplayOutcome b = run_replay(build, rep.cex->decisions);
  ASSERT_TRUE(a.violation.has_value());
  ASSERT_TRUE(b.violation.has_value());
  EXPECT_EQ(a.violation->message, b.violation->message);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(ReplayTest, FileRoundTrip) {
  ReplayFile f;
  f.scenario = bug_options();
  f.scenario.crashes = 0;
  f.scenario.stabilization = 20;
  f.decisions = {3, 1, 4, 1, 5};
  f.note = "agreement(decide): example";
  std::string error;
  const auto parsed = parse_replay(to_text(f), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->scenario.problem, f.scenario.problem);
  EXPECT_EQ(parsed->scenario.n, f.scenario.n);
  EXPECT_EQ(parsed->scenario.max_steps, f.scenario.max_steps);
  EXPECT_EQ(parsed->scenario.stabilization, f.scenario.stabilization);
  EXPECT_EQ(parsed->decisions, f.decisions);
  EXPECT_EQ(parsed->note, f.note);
}

TEST(ReplayTest, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(parse_replay("problem=consensus\n", &error).has_value());
  EXPECT_FALSE(parse_replay("decisions=1,x\n", &error).has_value());
  EXPECT_FALSE(
      parse_replay("problem=nope\ndecisions=1\n", &error).has_value());
}

TEST(ReplayTest, LambdaAlwaysKeyAcceptsOnlyOne) {
  // Every replay file written while --no-lambda existed carries
  // lambda_always=1; a 0 names menus without the lambda step, so its
  // decisions would index different options. Refused, not ignored.
  std::string error;
  EXPECT_TRUE(
      parse_replay("problem=consensus\nlambda_always=1\ndecisions=1\n", &error)
          .has_value())
      << error;
  EXPECT_FALSE(
      parse_replay("problem=consensus\nlambda_always=0\ndecisions=1\n", &error)
          .has_value());
  EXPECT_NE(error.find("bad value for lambda_always: 0"), std::string::npos)
      << error;
}

TEST(ReplayTest, AdversarialKeyReplaysAsFlap) {
  // Written while --fd=adversarial existed (per-query choices plus
  // pattern tracking). Crash_mode "explore" turns the tracking on
  // itself, so the decisions replay the same counterexample under flap.
  const std::string text =
      "# wfd_check replay\n"
      "note=agreement(decide): p0 decided 0 but p2 decided 1 at t=10\n"
      "problem=consensus-crash-bug\nn=3\ncrashes=1\ncrash_time=never\n"
      "crash_mode=explore\nloss_drops=0\nloss_dups=0\nfd_adversarial=1\n"
      "max_steps=40\nseed=1\nstabilization=never\nfd_per_query=1\n"
      "record_fd_samples=1\nnbac_no_voter=-1\nreg_ops=2\nreg_readers=0\n"
      "abcast_senders=2\noldest_per_channel=1\nliveness=\n"
      "decisions=0,1,3,1,3,0,0,1,4,0,0,2,1\n";
  std::string error;
  const auto parsed = parse_replay(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->scenario.fd_per_query);
  const ReplayOutcome out =
      run_replay(ScenarioFactory(parsed->scenario).builder(),
                 parsed->decisions);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->property + ": " + out.violation->message,
            parsed->note);
  EXPECT_FALSE(
      parse_replay("problem=qc\nfd_adversarial=2\ndecisions=1\n", &error)
          .has_value());
}

TEST(ReplayTest, ParseRejectsNumericOverflow) {
  // Out-of-range numerics must fail the parse, not silently wrap into a
  // small in-range value that replays a different scenario.
  std::string error;
  // 2^64: one past UINT64_MAX.
  EXPECT_FALSE(parse_replay("problem=consensus\n"
                            "seed=18446744073709551616\ndecisions=1\n",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  // Far past UINT64_MAX (the classic wrap-to-small-value shape).
  EXPECT_FALSE(parse_replay("problem=consensus\n"
                            "max_steps=99999999999999999999999\n"
                            "decisions=1\n",
                            &error)
                   .has_value());
  // Decisions are 32-bit.
  EXPECT_FALSE(
      parse_replay("problem=consensus\ndecisions=4294967296\n", &error)
          .has_value());
  // Ints: one past INT_MAX, and a negative that a naive `-(int)v`
  // negation would turn into a positive number via signed overflow.
  EXPECT_FALSE(
      parse_replay("problem=consensus\nn=2147483648\ndecisions=1\n", &error)
          .has_value());
  EXPECT_FALSE(parse_replay("problem=consensus\nn=-2147483649\ndecisions=1\n",
                            &error)
                   .has_value());
}

TEST(ReplayTest, ScalarParsersGuardTheBoundaries) {
  std::uint64_t u = 0;
  EXPECT_TRUE(detail::parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(detail::parse_u64("18446744073709551616", &u));
  EXPECT_FALSE(detail::parse_u64("99999999999999999999999", &u));
  EXPECT_FALSE(detail::parse_u64("", &u));
  EXPECT_FALSE(detail::parse_u64("12x", &u));

  int i = 0;
  EXPECT_TRUE(detail::parse_int("2147483647", &i));
  EXPECT_EQ(i, INT_MAX);
  // INT_MIN is representable even though its magnitude overflows a
  // positive int — the historical UB case for `-(int)v` negation.
  EXPECT_TRUE(detail::parse_int("-2147483648", &i));
  EXPECT_EQ(i, INT_MIN);
  EXPECT_FALSE(detail::parse_int("2147483648", &i));
  EXPECT_FALSE(detail::parse_int("-2147483649", &i));
  // A huge negative must not wrap into a small positive (the wrap shape
  // -(uint32)4294967295 == 1).
  EXPECT_FALSE(detail::parse_int("-4294967295", &i));
  EXPECT_FALSE(detail::parse_int("-", &i));
}

TEST(ReplayTest, RoundTripsEveryProblemAndAwkwardNotes) {
  // Property check: to_text -> parse_replay is the identity over a grid
  // of option sets and notes — including notes with newlines, which used
  // to be written raw and break the line-oriented format.
  const std::vector<std::string> notes = {
      "",
      "plain provenance",
      "line one\nline two",
      "trailing newline\n",
      "tabs\tand \\backslashes\\",
      "carriage\r\nreturns",
  };
  std::size_t combos = 0;
  for (const ProblemSpec& spec : ScenarioFactory::problems()) {
    for (const std::string& note : notes) {
      ReplayFile f;
      f.scenario.problem = spec.name;
      f.scenario.n = 3;
      f.scenario.max_steps = 17;
      f.scenario.seed = 99;
      f.scenario.stabilization = (combos % 2 == 0) ? kNever : Time{12};
      f.scenario.fd_per_query = combos % 3 != 0;
      if (spec.name == "nbac") f.scenario.nbac_no_voter = 1;
      f.decisions = {0, 3, 1, 4, 1, 5, 9, 2, 6};
      f.note = note;
      ASSERT_EQ(ScenarioFactory::validate(f.scenario), "") << spec.name;
      std::string error;
      const auto p = parse_replay(to_text(f), &error);
      ASSERT_TRUE(p.has_value()) << spec.name << ": " << error;
      EXPECT_EQ(p->note, f.note) << spec.name;
      EXPECT_EQ(p->decisions, f.decisions) << spec.name;
      // Rendering covers every scenario field, so text equality is
      // full-struct equality.
      EXPECT_EQ(to_text(*p), to_text(f)) << spec.name;
      ++combos;
    }
  }
  EXPECT_GE(combos, notes.size() * 5);
}

TEST(CampaignTest, FindsSeededBugAndShrinksIt) {
  SearchConfig co;
  co.scenario = bug_options();
  co.threads = 4;
  co.runs = 2000;
  co.frontier_workers = 2;
  co.max_states = 2000;
  const ScenarioBuilder build = ScenarioFactory(bug_options()).builder();
  const CampaignReport rep = run_campaign(build, co);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
  EXPECT_GT(rep.violations, 0u);
  // The claimed counterexample was shrunk and still reproduces.
  EXPECT_GT(rep.shrunk_from, 0u);
  const ReplayOutcome out = run_replay(build, rep.cex->decisions);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->property, "agreement(decide)");
}

// Fires on exactly one invariant check across every scenario instance
// the campaign builds, then never again: after the claim the tree is
// clean, so nothing but the stop flag can end a frontier worker's DFS
// early.
class OneShotInvariant : public Invariant {
 public:
  explicit OneShotInvariant(std::shared_ptr<std::atomic<std::uint64_t>> fuse)
      : fuse_(std::move(fuse)) {}
  [[nodiscard]] std::string name() const override { return "one-shot"; }
  std::optional<Violation> check(const sim::Simulator& sim) override {
    (void)sim;
    if (fuse_->fetch_add(1, std::memory_order_relaxed) == kFireAt) {
      return Violation{name(), "the fuse burned down", 0};
    }
    return std::nullopt;
  }

  static constexpr std::uint64_t kFireAt = 2000;

 private:
  std::shared_ptr<std::atomic<std::uint64_t>> fuse_;
};

TEST(CampaignTest, StopFlagCancelsFrontierWorkers) {
  // Regression: frontier workers used to ignore the campaign's stop
  // flag, so under stop_at_first each one kept grinding its full
  // max_states budget after the counterexample was already claimed.
  // The budgets below are sized so that an un-cancelled worker would
  // materialize millions of nodes (minutes of work); with the flag
  // plumbed through SearchConfig::cancel the campaign returns almost
  // immediately and the node total stays far below the budget.
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 40;
  const ScenarioBuilder clean = ScenarioFactory(opt).builder();
  auto fuse = std::make_shared<std::atomic<std::uint64_t>>(0);
  const ScenarioBuilder build = [clean, fuse](sim::ChoiceSource& choices) {
    Scenario sc = clean(choices);
    sc.invariants.push_back(std::make_unique<OneShotInvariant>(fuse));
    return sc;
  };
  SearchConfig co;
  co.scenario = opt;
  co.threads = 2;
  co.runs = 1000000;
  co.frontier_workers = 2;
  co.max_states = 10000000;
  co.shrink = false;  // The one-shot violation cannot re-reproduce.
  const CampaignReport rep = run_campaign(build, co);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "one-shot");
  EXPECT_EQ(rep.violations, 1u);
  EXPECT_LT(rep.nodes, co.max_states / 10);
  EXPECT_LT(rep.runs, co.runs / 10);
}

// Fires at the first `kind` event whose value satisfies `hit`: turns
// "some explored run reaches X" into a counterexample search.
class ReachedInvariant : public Invariant {
 public:
  ReachedInvariant(std::string kind, bool (*hit)(std::int64_t))
      : kind_(std::move(kind)), hit_(hit) {}
  [[nodiscard]] std::string name() const override { return "reached"; }
  std::optional<Violation> check(const sim::Simulator& sim) override {
    for (const auto& e : sim.trace().events()) {
      if (e.kind == kind_ && hit_(e.value)) {
        return Violation{name(), kind_ + " " + std::to_string(e.value), e.t};
      }
    }
    return std::nullopt;
  }

 private:
  std::string kind_;
  bool (*hit_)(std::int64_t);
};

// Psi's (Omega, Sigma) branch reaches Figure 2's inner consensus, so the
// explorer's QC runs decide values (not only Q) and its NBAC runs
// commit: the QC/NBAC lanes check agreement on decided values.
TEST(ExplorerTest, QcDecidesAValueAndNbacCommits) {
  struct Case {
    const char* problem;
    const char* kind;
    bool (*hit)(std::int64_t);
  };
  for (const Case c :
       {Case{"qc", "qc-decide", [](std::int64_t v) { return v != -1; }},
        Case{"nbac", "nbac-decide", [](std::int64_t v) { return v == 1; }}}) {
    ScenarioOptions opt;
    opt.problem = c.problem;
    opt.n = 3;
    opt.max_steps = 16;
    opt.fd_per_query = false;
    const ScenarioBuilder clean = ScenarioFactory(opt).builder();
    const ScenarioBuilder build = [clean, c](sim::ChoiceSource& choices) {
      Scenario sc = clean(choices);
      sc.invariants.push_back(
          std::make_unique<ReachedInvariant>(c.kind, c.hit));
      return sc;
    };
    SearchConfig cfg;
    cfg.scenario = opt;
    cfg.max_states = 0;
    const ExploreReport rep = Explorer(build, cfg).run();
    ASSERT_TRUE(rep.cex.has_value()) << c.problem << " never reached";
    EXPECT_EQ(rep.cex->violation.property, "reached") << c.problem;
  }
}

// Legality sweeps: the correct protocols with choice-driven (adversarial
// but legal) detector histories must never violate their safety clauses.
TEST(CampaignTest, CorrectProtocolsStayClean) {
  for (const char* problem : {"consensus", "qc", "nbac", "sigma"}) {
    ScenarioOptions opt;
    opt.problem = problem;
    opt.n = 3;
    opt.crashes = 1;
    opt.max_steps = 50;
    if (opt.problem == "nbac") opt.nbac_no_voter = 0;
    SearchConfig co;
    co.scenario = opt;
    co.threads = 4;
    co.runs = 300;
    co.shrink = false;
    const CampaignReport rep =
        run_campaign(ScenarioFactory(opt).builder(), co);
    EXPECT_FALSE(rep.cex.has_value())
        << problem << ": " << rep.cex->violation.property << " — "
        << rep.cex->violation.message;
    EXPECT_EQ(rep.violations, 0u) << problem;
    EXPECT_EQ(rep.runs, 300u) << problem;
  }
}

}  // namespace
}  // namespace wfd::explore
