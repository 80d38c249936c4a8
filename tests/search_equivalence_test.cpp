// The wave-scheduled explorer's two headline guarantees, end to end:
//
//  1. Thread-count invariance: every decision that shapes the search is
//     a pure function of the committed search state, so the full stats
//     block — states, runs, reduction counters, injected faults,
//     violations, coverage — is bit-identical for every
//     SearchConfig::threads value, across the fault matrix (explored
//     crashes, lossy links, a seeded bug).
//
//  2. Symmetry soundness: canonical fingerprints are the minimum digest
//     over the scenario's symmetry group, so two runs that differ only
//     by a renaming of interchangeable processes — schedule AND
//     detector choices renamed together — produce equal canonical
//     fingerprints from genuinely different states, the reduction
//     shrinks the tree, and it still finds the seeded bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "explore/explorer.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "sim/choice.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/state_encoder.h"

namespace wfd::explore {
namespace {

// ---- Thread-count invariance ------------------------------------------

void expect_same_stats(const ExploreStats& a, const ExploreStats& b,
                       const char* what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.sleep_skips, b.sleep_skips) << what;
  EXPECT_EQ(a.fp_prunes, b.fp_prunes) << what;
  EXPECT_EQ(a.hb_races, b.hb_races) << what;
  EXPECT_EQ(a.backtrack_points, b.backtrack_points) << what;
  EXPECT_EQ(a.commute_skips, b.commute_skips) << what;
  EXPECT_EQ(a.injected_crashes, b.injected_crashes) << what;
  EXPECT_EQ(a.injected_drops, b.injected_drops) << what;
  EXPECT_EQ(a.injected_dups, b.injected_dups) << what;
  EXPECT_EQ(a.fingerprints, b.fingerprints) << what;
  EXPECT_EQ(a.replayed_steps, b.replayed_steps) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
  EXPECT_EQ(a.exhausted, b.exhausted) << what;
  EXPECT_EQ(a.graph_states, b.graph_states) << what;
  EXPECT_EQ(a.graph_edges, b.graph_edges) << what;
  EXPECT_EQ(a.graph_truncated, b.graph_truncated) << what;
}

/// Runs the scenario at threads = 1, 2, 8 and requires the T=1 report
/// to be reproduced exactly: same stats block, same coverage, same
/// counterexample presence and property.
void expect_thread_invariant(const SearchConfig& base, const char* what) {
  SearchConfig cfg = base;
  cfg.threads = 1;
  ASSERT_EQ(validate(cfg), "") << what;
  Explorer serial(ScenarioFactory(cfg.scenario).builder(), cfg);
  const ExploreReport ref = serial.run();
  for (int threads : {2, 8}) {
    SearchConfig par = base;
    par.threads = threads;
    Explorer ex(ScenarioFactory(par.scenario).builder(), par);
    const ExploreReport rep = ex.run();
    expect_same_stats(ref.stats, rep.stats, what);
    EXPECT_EQ(coverage(ref.stats), coverage(rep.stats)) << what;
    EXPECT_EQ(ref.fair_cycle_checked, rep.fair_cycle_checked) << what;
    EXPECT_EQ(ref.cex.has_value(), rep.cex.has_value()) << what;
    if (ref.cex.has_value() && rep.cex.has_value()) {
      EXPECT_EQ(ref.cex->violation.property, rep.cex->violation.property)
          << what;
    }
    EXPECT_EQ(ref.conservative_payloads, rep.conservative_payloads) << what;
  }
}

TEST(ParallelEquivalenceTest, ExploredCrashesAreThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 10;
  cfg.scenario.fd_per_query = false;
  cfg.scenario.crash_mode = "explore";
  cfg.scenario.crashes = 1;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus n=3 crash=explore");
}

// Termination under explored crashes: each unit records its own graph
// overlay and its own step trail (the replay-prefix fingerprint reuse),
// so the merged graph and the fingerprint count are thread-invariant.
TEST(ParallelEquivalenceTest, LivenessGraphIsThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 8;
  cfg.scenario.fd_per_query = false;
  cfg.scenario.crash_mode = "explore";
  cfg.scenario.crashes = 1;
  cfg.scenario.liveness = "termination";
  cfg.reduction = Reduction::kNone;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus n=3 crash=explore liveness");
}

TEST(ParallelEquivalenceTest, SymmetryComposesWithThreads) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 12;
  cfg.scenario.fd_per_query = false;
  cfg.symmetry = true;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus n=3 symmetry");
}

TEST(ParallelEquivalenceTest, LossyRegisterIsThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "register";
  cfg.scenario.n = 2;
  cfg.scenario.max_steps = 10;
  cfg.scenario.fd_per_query = false;
  cfg.scenario.reg_ops = 1;
  cfg.scenario.reg_readers = 1;
  cfg.scenario.loss_drops = 1;
  cfg.scenario.loss_dups = 1;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "lossy register n=2");
}

TEST(ParallelEquivalenceTest, SeededBugIsThreadCountInvariant) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus-bug";
  cfg.scenario.n = 2;
  cfg.scenario.max_steps = 6;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  expect_thread_invariant(cfg, "consensus-bug n=2");
}

// ---- Symmetry reduction soundness -------------------------------------

ExploreReport explore(const SearchConfig& cfg) {
  SearchConfig c = cfg;
  EXPECT_EQ(validate(c), "");
  Explorer ex(ScenarioFactory(c.scenario).builder(), c);
  return ex.run();
}

// Canonicalization must shrink the tree without losing coverage: both
// searches exhaust, agree on violations, and the symmetric one
// materializes strictly fewer choice points (n=3 consensus has the
// even-parity pair {0, 2} interchangeable).
TEST(SymmetrySoundnessTest, ReductionExhaustsWithFewerStates) {
  SearchConfig plain;
  plain.scenario.problem = "consensus";
  plain.scenario.n = 3;
  plain.scenario.max_steps = 12;
  plain.scenario.fd_per_query = false;
  plain.max_states = 0;
  plain.stop_at_first = false;
  SearchConfig sym = plain;
  sym.symmetry = true;

  const ExploreReport rp = explore(plain);
  const ExploreReport rs = explore(sym);
  EXPECT_TRUE(rp.stats.exhausted);
  EXPECT_TRUE(rs.stats.exhausted);
  EXPECT_EQ(rp.stats.violations, 0u);
  EXPECT_EQ(rs.stats.violations, 0u);
  EXPECT_LT(rs.stats.nodes, rp.stats.nodes);
}

// Soundness against a known defect: the seeded agreement bug must
// survive canonicalization (a reduction that merges too much would
// prune the violating branch). n=3 so the even parity class {0, 2}
// gives the renaming group something to act on.
TEST(SymmetrySoundnessTest, SeededBugSurvivesCanonicalization) {
  SearchConfig cfg;
  cfg.scenario.problem = "consensus-bug";
  cfg.scenario.n = 3;
  cfg.scenario.max_steps = 8;
  cfg.symmetry = true;
  cfg.max_states = 0;
  cfg.stop_at_first = false;
  const ExploreReport rep = explore(cfg);
  EXPECT_TRUE(rep.stats.exhausted);
  EXPECT_GT(rep.stats.violations, 0u);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_EQ(rep.cex->violation.property, "agreement(decide)");
}

// ---- Canonical fingerprints across renamings --------------------------

/// Baseline run: schedule choices step `order` in sequence, every other
/// choice takes option 0 and records its label so a twin run can map it.
class BaseRun : public sim::ChoiceSource {
 public:
  explicit BaseRun(std::vector<ProcessId> order) : order_(std::move(order)) {}

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    if (kind == sim::ChoiceKind::kSchedule) {
      EXPECT_LT(next_, order_.size());
      const ProcessId want = order_[next_++];
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (sim::ReplayScheduler::label_process(labels[i]) == want) return i;
      }
      ADD_FAILURE() << "no schedule option for process " << want;
      return 0;
    }
    if (kind == sim::ChoiceKind::kFd) fd_picks_.push_back(labels[0]);
    return 0;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& fd_picks() const {
    return fd_picks_;
  }

 private:
  std::vector<ProcessId> order_;
  std::size_t next_ = 0;
  std::vector<std::uint64_t> fd_picks_;
};

/// The pi-image of a BaseRun: schedules pi(order), and answers each
/// detector choice with the pi-image of the baseline's pick. Omega
/// labels are process ids (all < n), sigma labels are quorum bitmasks;
/// both rename field by field.
class RenamedRun : public sim::ChoiceSource {
 public:
  RenamedRun(std::vector<ProcessId> order, const std::vector<ProcessId>& perm,
             const std::vector<std::uint64_t>& base_fd)
      : order_(std::move(order)), perm_(perm), base_fd_(base_fd) {}

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    if (kind == sim::ChoiceKind::kSchedule) {
      EXPECT_LT(next_, order_.size());
      const auto idx = static_cast<std::size_t>(order_[next_++]);
      const ProcessId want = perm_[idx];
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (sim::ReplayScheduler::label_process(labels[i]) == want) return i;
      }
      ADD_FAILURE() << "no schedule option for process " << want;
      return 0;
    }
    if (kind == sim::ChoiceKind::kFd) {
      EXPECT_LT(fd_i_, base_fd_.size());
      const std::uint64_t want = map_label(base_fd_[fd_i_++], labels);
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == want) return i;
      }
      ADD_FAILURE() << "renamed detector label " << want << " not offered";
    }
    return 0;
  }

 private:
  [[nodiscard]] std::uint64_t map_label(
      std::uint64_t label, const std::vector<std::uint64_t>& labels) const {
    const auto n = static_cast<std::uint64_t>(perm_.size());
    const bool pids = std::all_of(labels.begin(), labels.end(),
                                  [n](std::uint64_t l) { return l < n; });
    if (pids) return static_cast<std::uint64_t>(perm_[label]);
    std::uint64_t out = 0;
    for (std::size_t p = 0; p < perm_.size(); ++p) {
      if ((label >> p) & 1) out |= std::uint64_t{1} << perm_[p];
    }
    return out;
  }

  std::vector<ProcessId> order_;
  std::size_t next_ = 0;
  const std::vector<ProcessId>& perm_;
  const std::vector<std::uint64_t>& base_fd_;
  std::size_t fd_i_ = 0;
};

/// The composed digest exactly as the explorer computes it: simulator
/// plus invariants, optionally through a renaming.
std::uint64_t digest(const Scenario& sc, const std::vector<ProcessId>* perm) {
  sim::StateEncoder enc(perm);
  sc.sim->encode_state(enc);
  std::size_t i = 0;
  for (const auto& inv : sc.invariants) {
    enc.push("invariant", i++);
    inv->encode_state(enc);
    enc.pop();
  }
  EXPECT_TRUE(enc.complete());
  return enc.digest();
}

// Two runs of consensus n=3 related by the even-class swap 0 <-> 2 —
// schedule and detector history renamed together — reach states that
// are exact renamings of each other: the digest of one under the
// permutation equals the plain digest of the other, so the canonical
// (minimum over the group) fingerprints coincide even though the plain
// fingerprints keep the genuinely different states apart.
TEST(SymmetrySoundnessTest, CanonicalFingerprintAgreesAcrossRenamings) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  opt.max_steps = 10;
  opt.fd_per_query = false;

  // The even parity class {0, 2} must be declared interchangeable.
  const auto classes = ScenarioFactory::symmetry_classes(opt);
  ASSERT_FALSE(classes.empty());
  ASSERT_NE(std::find(classes.begin(), classes.end(),
                      std::vector<ProcessId>({0, 2})),
            classes.end());
  const std::vector<ProcessId> swap02 = {2, 1, 0};

  const std::vector<ProcessId> order = {0, 2, 0};
  BaseRun a(order);
  Scenario sa = ScenarioFactory(opt).build(a);
  for (std::size_t i = 0; i < order.size(); ++i) ASSERT_TRUE(sa.sim->step());
  RenamedRun b(order, swap02, a.fd_picks());
  Scenario sb = ScenarioFactory(opt).build(b);
  for (std::size_t i = 0; i < order.size(); ++i) ASSERT_TRUE(sb.sim->step());

  const std::uint64_t a_id = digest(sa, nullptr);
  const std::uint64_t a_sw = digest(sa, &swap02);
  const std::uint64_t b_id = digest(sb, nullptr);
  const std::uint64_t b_sw = digest(sb, &swap02);

  EXPECT_NE(a_id, b_id) << "different states must hash apart plainly";
  EXPECT_EQ(a_sw, b_id) << "digest under pi = plain digest of the "
                           "pi-renamed state";
  EXPECT_EQ(b_sw, a_id);
  EXPECT_EQ(std::min(a_id, a_sw), std::min(b_id, b_sw))
      << "canonical fingerprints must merge the renamed pair";
}

}  // namespace
}  // namespace wfd::explore
