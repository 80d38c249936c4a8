// Soundness of the content-aware dependence relation.
//
// The commutativity contract (sim/payload.h) claims that delivering two
// commuting messages to the same process in either order reaches the
// same state. This file checks that claim *empirically* against the
// real protocols: random walks surface schedule frames whose menu
// offers two deliveries to one process; whenever the payload relation
// declares the pair commuting, both orders are replayed and their
// composed state fingerprints must coincide. It also checks that DPOR
// over this relation reaches the same verdicts as the unreduced search
// — finding the seeded bug, staying clean on the correct protocols —
// while exploring no more states.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "explore/scenario.h"
#include "sim/choice.h"
#include "sim/dependence.h"
#include "sim/network.h"
#include "sim/payload.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace wfd::explore {
namespace {

// ---------------------------------------------------------------------
// Unit surface of payloads_commute: symmetry and fail-closed defaults.

struct AuditedLatch final : sim::Payload {
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "latch");
  }
  [[nodiscard]] std::string_view kind() const override { return "t.latch"; }
  [[nodiscard]] bool commutes_with(const sim::Payload& other) const override {
    return sim::payload_cast<AuditedLatch>(other) != nullptr;
  }
};

struct AuditedOrdered final : sim::Payload {
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "ordered");
  }
  [[nodiscard]] std::string_view kind() const override { return "t.ordered"; }
};

struct Unaudited final : sim::Payload {
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "opaque");
  }
};

// One-sided claim: says yes to everything, but nothing claims it back.
struct Overeager final : sim::Payload {
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "overeager");
  }
  [[nodiscard]] std::string_view kind() const override {
    return "t.overeager";
  }
  [[nodiscard]] bool commutes_with(const sim::Payload&) const override {
    return true;
  }
};

TEST(PayloadDependenceTest, DeclaredPairsCommuteBothWays) {
  AuditedLatch a, b;
  EXPECT_TRUE(sim::payloads_commute(a, b, nullptr));
}

TEST(PayloadDependenceTest, AuditedNonCommutingStaysDependent) {
  AuditedOrdered a, b;
  EXPECT_FALSE(sim::payloads_commute(a, b, nullptr));
}

TEST(PayloadDependenceTest, UnauditedPayloadFailsClosedAndIsReported) {
  Unaudited u;
  AuditedLatch l;
  std::set<std::string> conservative;
  EXPECT_FALSE(sim::payloads_commute(u, l, &conservative));
  ASSERT_EQ(conservative.size(), 1u);
  // The identity is the demangled type name (no kind() to fall back on).
  EXPECT_NE(conservative.begin()->find("Unaudited"), std::string::npos);
}

TEST(PayloadDependenceTest, OneSidedClaimIsNotEnough) {
  Overeager yes;
  AuditedOrdered no;
  // yes->no claims commuting, no->yes does not: the relation must take
  // the conjunction.
  EXPECT_FALSE(sim::payloads_commute(yes, no, nullptr));
  EXPECT_FALSE(sim::payloads_commute(no, yes, nullptr));
}

// ---------------------------------------------------------------------
// Empirical soundness harness.

struct TraceFrame {
  sim::ChoiceKind kind{};
  std::vector<std::uint64_t> labels;
  std::uint32_t chosen = 0;
};

/// Random walk that records every choice point's menu and answer.
class TraceSource : public sim::ChoiceSource {
 public:
  explicit TraceSource(std::uint64_t seed) : rnd_(seed) {}

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    const std::size_t idx = rnd_.choose(kind, labels);
    frames_.push_back(
        TraceFrame{kind, labels, static_cast<std::uint32_t>(idx)});
    return idx;
  }

  [[nodiscard]] const std::vector<TraceFrame>& frames() const {
    return frames_;
  }

 private:
  sim::RandomChoices rnd_;
  std::vector<TraceFrame> frames_;
};

/// Replays a fixed prefix, then forces the delivery of `first` at the
/// cut frame and of `second` at the next schedule frame. Captures the
/// two payloads from the network at the cut (both still pending there).
class PairSource : public sim::ChoiceSource {
 public:
  PairSource(std::vector<std::uint32_t> prefix, std::uint64_t first,
             std::uint64_t second)
      : prefix_(std::move(prefix)), first_(first), second_(second) {}

  sim::Simulator* sim = nullptr;  ///< Set right after the scenario builds.

  std::size_t choose(sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    if (calls_ < prefix_.size()) {
      return prefix_[calls_++];
    }
    ++calls_;
    if (phase_ == 0) {
      if (kind != sim::ChoiceKind::kSchedule) {
        failed_ = true;
        return 0;
      }
      payload_a_ =
          sim->network().get(sim::ReplayScheduler::label_message(first_))
              .payload;
      payload_b_ =
          sim->network().get(sim::ReplayScheduler::label_message(second_))
              .payload;
      phase_ = 1;
      return index_of(labels, first_);
    }
    if (phase_ == 1 && kind == sim::ChoiceKind::kSchedule) {
      phase_ = 2;
      return index_of(labels, second_);
    }
    // Non-schedule choices between the pair answer a fixed default so
    // both variants consume them identically.
    return 0;
  }

  [[nodiscard]] bool done() const { return phase_ == 2; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const sim::PayloadPtr& payload_a() const { return payload_a_; }
  [[nodiscard]] const sim::PayloadPtr& payload_b() const { return payload_b_; }

 private:
  std::size_t index_of(const std::vector<std::uint64_t>& labels,
                       std::uint64_t want) {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == want) return i;
    }
    failed_ = true;
    return 0;
  }

  std::vector<std::uint32_t> prefix_;
  std::uint64_t first_ = 0;
  std::uint64_t second_ = 0;
  std::size_t calls_ = 0;
  int phase_ = 0;
  bool failed_ = false;
  sim::PayloadPtr payload_a_;
  sim::PayloadPtr payload_b_;
};

struct VariantResult {
  bool ok = false;
  std::optional<std::uint64_t> fp;
  sim::PayloadPtr payload_a;
  sim::PayloadPtr payload_b;
};

VariantResult run_variant(const ScenarioBuilder& build,
                          const std::vector<std::uint32_t>& prefix,
                          std::uint64_t first, std::uint64_t second) {
  VariantResult r;
  PairSource src(prefix, first, second);
  Scenario sc = build(src);
  src.sim = sc.sim.get();
  for (int guard = 0; guard < 4096 && !src.done(); ++guard) {
    if (!sc.sim->step()) return r;
    if (src.failed()) return r;
  }
  if (!src.done() || src.failed()) return r;
  r.ok = true;
  r.fp = sc.sim->state_fingerprint();
  r.payload_a = src.payload_a();
  r.payload_b = src.payload_b();
  return r;
}

/// Random-walks `problem`, and for every same-process delivery pair the
/// payload relation declares commuting, replays both orders and demands
/// equal state fingerprints. Adds the number of pairs checked to
/// `verified` (out-param so ASSERT can return early).
void check_commuting_pairs(const ScenarioOptions& opt, std::uint64_t seed,
                           int* verified) {
  const ScenarioBuilder build = ScenarioFactory(opt).builder();
  TraceSource trace(seed);
  {
    Scenario sc = build(trace);
    for (int guard = 0; guard < 4096 && sc.sim->step(); ++guard) {
    }
  }
  const auto& frames = trace.frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const TraceFrame& f = frames[i];
    if (f.kind != sim::ChoiceKind::kSchedule) continue;
    std::vector<std::uint32_t> prefix;
    for (std::size_t j = 0; j < i; ++j) prefix.push_back(frames[j].chosen);
    for (std::size_t x = 0; x < f.labels.size(); ++x) {
      for (std::size_t y = x + 1; y < f.labels.size(); ++y) {
        const std::uint64_t la = f.labels[x];
        const std::uint64_t lb = f.labels[y];
        if (sim::ReplayScheduler::label_process(la) !=
            sim::ReplayScheduler::label_process(lb)) {
          continue;
        }
        if (sim::ReplayScheduler::label_message(la) == 0 ||
            sim::ReplayScheduler::label_message(lb) == 0) {
          continue;
        }
        const VariantResult ab = run_variant(build, prefix, la, lb);
        if (!ab.ok || !ab.fp.has_value()) continue;
        if (ab.payload_a == nullptr || ab.payload_b == nullptr) continue;
        if (!sim::payloads_commute(*ab.payload_a, *ab.payload_b, nullptr)) {
          continue;  // The relation makes no claim for this pair.
        }
        const VariantResult ba = run_variant(build, prefix, lb, la);
        ASSERT_TRUE(ba.ok) << "commuting pair's flipped order not schedulable";
        ASSERT_TRUE(ba.fp.has_value());
        EXPECT_EQ(*ab.fp, *ba.fp)
            << opt.problem << ": payloads " << ab.payload_a->identity()
            << " / " << ab.payload_b->identity()
            << " declared commuting but orders diverge (frame " << i << ")";
        ++*verified;
      }
    }
  }
}

TEST(CommuteSoundnessTest, ConsensusPairsReachEqualStates) {
  ScenarioOptions opt;
  opt.problem = "consensus";
  opt.n = 3;
  // Consensus pairs only commute on equal content, and the menu's
  // oldest-per-channel rule hides same-channel retry duplicates — the
  // realistic pair is two Decide(v) copies from *distinct* senders (the
  // deciding leader's broadcast plus a decided process answering a late
  // Prepare/Accept). That needs a process to start a round after the
  // decision, so omega must flap: per-query detector values, not one
  // latched history.
  opt.max_steps = 60;
  opt.fd_per_query = true;
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    check_commuting_pairs(opt, seed, &verified);
  }
  // The harness must actually bite: consensus traffic (equal-value
  // Decide announcements, equal-round Nacks) yields commuting pairs.
  EXPECT_GT(verified, 0);
}

TEST(CommuteSoundnessTest, NbacPairsReachEqualStates) {
  ScenarioOptions opt;
  opt.problem = "nbac";
  opt.n = 3;
  opt.max_steps = 14;
  opt.fd_per_query = false;
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_commuting_pairs(opt, seed, &verified);
  }
  EXPECT_GT(verified, 0);
}

TEST(CommuteSoundnessTest, RegisterPairsReachEqualStates) {
  ScenarioOptions opt;
  opt.problem = "register";
  opt.n = 3;
  opt.max_steps = 16;
  opt.fd_per_query = false;
  opt.reg_ops = 1;
  opt.reg_readers = 1;
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_commuting_pairs(opt, seed, &verified);
  }
  EXPECT_GT(verified, 0);
}

TEST(CommuteSoundnessTest, BroadcastEchoPairsReachEqualStates) {
  // The URB echo storm is the commuting-traffic showcase: relays of the
  // same app message from distinct processes race constantly and all
  // commute.
  ScenarioOptions opt;
  opt.problem = "rb";
  opt.n = 3;
  opt.max_steps = 12;
  opt.abcast_senders = 2;
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_commuting_pairs(opt, seed, &verified);
  }
  EXPECT_GT(verified, 0);
}

// ---------------------------------------------------------------------
// DPOR equivalence: content-aware DPOR must reach the same verdicts as
// the unreduced search (Reduction::kNone).

TEST(DependenceEquivalenceTest, ContentModeStillFindsSeededBug) {
  ScenarioOptions opt;
  opt.problem = "consensus-bug";
  opt.n = 3;
  opt.max_steps = 30;
  const ScenarioBuilder build = ScenarioFactory(opt).builder();

  SearchConfig reference;
  reference.scenario = opt;
  reference.reduction = Reduction::kNone;
  SearchConfig dpor = reference;
  dpor.reduction = Reduction::kDpor;

  Explorer re(build, reference);
  Explorer de(build, dpor);
  const ExploreReport pr = re.run();
  const ExploreReport cr = de.run();
  ASSERT_TRUE(pr.cex.has_value());
  ASSERT_TRUE(cr.cex.has_value());
  EXPECT_EQ(pr.cex->violation.property, cr.cex->violation.property);
  EXPECT_LE(cr.stats.nodes, pr.stats.nodes);
}

TEST(DependenceEquivalenceTest, ContentModeStaysCleanAndExhaustsFaster) {
  // NBAC rather than consensus: its vote slots are the codebase's
  // commuting-traffic workhorse, so DPOR demonstrably skips commuting
  // races here, while consensus at this depth has no equal-content
  // pairs in flight. The unreduced reference must exhaust: at depth 4
  // it takes 9,814 states (DPOR: 310); past depth 5 it outgrows the cap.
  ScenarioOptions opt;
  opt.problem = "nbac";
  opt.n = 3;
  opt.max_steps = 4;
  opt.fd_per_query = false;
  const ScenarioBuilder build = ScenarioFactory(opt).builder();

  SearchConfig reference;
  reference.scenario = opt;
  reference.reduction = Reduction::kNone;
  reference.state_fingerprints = false;
  reference.stop_at_first = false;
  reference.max_states = 500000;
  SearchConfig dpor = reference;
  dpor.reduction = Reduction::kDpor;

  Explorer re(build, reference);
  Explorer de(build, dpor);
  const ExploreReport pr = re.run();
  const ExploreReport cr = de.run();
  EXPECT_EQ(pr.stats.violations, 0u);
  EXPECT_EQ(cr.stats.violations, 0u);
  ASSERT_TRUE(pr.stats.exhausted);
  ASSERT_TRUE(cr.stats.exhausted);
  EXPECT_LE(cr.stats.nodes, pr.stats.nodes);
  EXPECT_GT(cr.stats.commute_skips, 0u);
  EXPECT_EQ(pr.stats.commute_skips, 0u);
}

}  // namespace
}  // namespace wfd::explore
