// Boundary conditions across the stack: single-process systems, stamp
// ordering, concurrent multi-writer races, callback-before-propose
// orderings, and tiny-quorum degenerate cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/omega_sigma_consensus.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "test_util.h"

namespace wfd {
namespace {

// ------------------------------------------------------------------ stamps

TEST(StampTest, LexicographicOrder) {
  reg::Stamp a{1, 0};
  reg::Stamp b{1, 1};
  reg::Stamp c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (reg::Stamp{1, 0}));
  // Counter dominates writer id.
  EXPECT_LT((reg::Stamp{1, 63}), (reg::Stamp{2, 0}));
}

// ------------------------------------------------------------- n = 1 cases

TEST(SingleProcessTest, ConsensusDecidesOwnProposal) {
  sim::SimConfig cfg;
  cfg.n = 1;
  cfg.max_steps = 5000;
  cfg.seed = 1;
  sim::Simulator s(cfg, test::pattern(1), test::omega_sigma(64),
                   test::round_robin());
  std::optional<int> decision;
  auto& host = s.add_process<sim::ModularProcess>();
  auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>("c");
  c.propose(7, [&decision](const int& d) { decision = d; });
  EXPECT_TRUE(s.run().all_done);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, 7);
}

TEST(SingleProcessTest, RegisterReadsOwnWrites) {
  sim::SimConfig cfg;
  cfg.n = 1;
  cfg.max_steps = 5000;
  cfg.seed = 2;
  sim::Simulator s(cfg, test::pattern(1), test::sigma_oracle(64),
                   test::round_robin());
  auto& host = s.add_process<sim::ModularProcess>();
  auto& r = host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg");
  std::optional<std::int64_t> got;
  r.write(99, [&r, &got] {
    r.read([&got](const std::int64_t& v) { got = v; });
  });
  s.set_halt_on_done(false);
  s.run_for(5000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 99);
}

TEST(SingleProcessTest, QcOmegaSigmaBranch) {
  sim::SimConfig cfg;
  cfg.n = 1;
  cfg.max_steps = 5000;
  cfg.seed = 3;
  sim::Simulator s(cfg, test::pattern(1),
                   test::psi_oracle(test::PsiBranch::kOmegaSigma, 64),
                   test::round_robin());
  std::optional<qc::QcResult<int>> result;
  auto& host = s.add_process<sim::ModularProcess>();
  auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
  q.propose(5, [&result](const qc::QcResult<int>& r) { result = r; });
  EXPECT_TRUE(s.run().all_done);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->quit);
  EXPECT_EQ(result->value, 5);
}

// -------------------------------------------------- concurrent multi-writer

TEST(MultiWriterTest, ConcurrentWritersConvergeToOneFinalValue) {
  // All n processes write different values concurrently, then all read:
  // atomicity forces a single winner for the final state.
  const int n = 4;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 300000;
  cfg.seed = 5;
  sim::Simulator s(cfg, test::pattern(n), test::sigma_oracle(200),
                   test::random_sched());

  struct WriteThenRead : sim::Module {
    reg::AbdRegisterModule<std::int64_t>* target = nullptr;
    std::optional<std::int64_t> final_read;
    bool started = false;
    void on_message(ProcessId, const sim::Payload&) override {}
    void on_tick() override {
      if (started) return;
      started = true;
      target->write(1000 + self(), [this] {
        target->read([this](const std::int64_t& v) { final_read = v; });
      });
    }
    [[nodiscard]] bool done() const override {
      return final_read.has_value();
    }
  };

  std::vector<WriteThenRead*> drivers;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r = host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg");
    auto& d = host.add_module<WriteThenRead>("driver");
    d.target = &r;
    drivers.push_back(&d);
  }
  EXPECT_TRUE(s.run().all_done);
  // Everyone read SOME written value; reads after all writes complete
  // must agree — check via a fresh quiescent read phase: the replica
  // states have converged to one (stamp, value).
  s.set_halt_on_done(false);
  s.run_for(20000);
  for (auto* d : drivers) {
    ASSERT_TRUE(d->final_read.has_value());
    EXPECT_GE(*d->final_read, 1000);
    EXPECT_LT(*d->final_read, 1000 + n);
  }
}

// --------------------------------------------- late proposer, early decide

TEST(LateProposerTest, DecisionBeforeProposeStillDelivers) {
  // Processes 1..3 propose immediately; process 0 proposes only after
  // t=20000 — by then the others have long decided. The late propose
  // must still deliver the (already known) decision via its callback.
  const int n = 4;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.max_steps = 200000;
  cfg.seed = 7;
  sim::Simulator s(cfg, test::pattern(n), test::omega_sigma(100),
                   test::random_sched());

  struct LateProposer : sim::Module {
    consensus::OmegaSigmaConsensusModule<int>* target = nullptr;
    std::optional<int> decision;
    Time ticks = 0;
    bool proposed = false;
    void on_message(ProcessId, const sim::Payload&) override {}
    void on_tick() override {
      if (proposed || ++ticks < 5000) return;
      proposed = true;
      target->propose(0, [this](const int& d) { decision = d; });
    }
    [[nodiscard]] bool done() const override {
      return decision.has_value();
    }
  };

  std::vector<std::optional<int>> decisions(n);
  LateProposer* late = nullptr;
  for (int i = 0; i < n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c =
        host.add_module<consensus::OmegaSigmaConsensusModule<int>>("cons");
    if (i == 0) {
      auto& lp = host.add_module<LateProposer>("late");
      lp.target = &c;
      late = &lp;
    } else {
      c.propose(1, [&decisions, i](const int& d) {
        decisions[static_cast<std::size_t>(i)] = d;
      });
    }
  }
  EXPECT_TRUE(s.run().all_done);
  ASSERT_NE(late, nullptr);
  ASSERT_TRUE(late->decision.has_value());
  EXPECT_EQ(*late->decision, 1);  // The early majority's value won.
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(decisions[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(*decisions[static_cast<std::size_t>(i)], 1);
  }
}

// ---------------------------------------------------- two-process systems

TEST(TwoProcessTest, NbacWithOneCrashAborts) {
  // n=2 and one crash: the smallest system where NBAC's non-blocking
  // property bites (2PC would block here).
  sim::FailurePattern f(2);
  f.crash_at(1, 0);
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.max_steps = 150000;
  cfg.seed = 9;
  sim::Simulator s(cfg, f, test::psi_fs(test::PsiBranch::kFs, 300),
                   test::random_sched());
  std::optional<nbac::Decision> decision;
  for (int i = 0; i < 2; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", &q);
    if (i == 0) {
      nb.vote(nbac::Vote::kYes,
              [&decision](nbac::Decision d) { decision = d; });
    }
  }
  EXPECT_TRUE(s.run().all_done);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, nbac::Decision::kAbort);
}

TEST(WorkloadHistoryTest, RespondTwiceIsRejected) {
  reg::History h;
  const auto idx = h.invoke(0, true, 5, 10);
  h.respond(idx, 20, 0);
  EXPECT_EQ(h.completed(), 1u);
  EXPECT_DEATH(h.respond(idx, 30, 0), "WFD_CHECK");
}

TEST(WorkloadHistoryTest, CompletedCountsOnlyResponded) {
  reg::History h;
  h.invoke(0, true, 1, 0);
  const auto idx = h.invoke(1, false, 0, 5);
  EXPECT_EQ(h.completed(), 0u);
  h.respond(idx, 9, 42);
  EXPECT_EQ(h.completed(), 1u);
  EXPECT_EQ(h.ops()[1].value, 42);
}

}  // namespace
}  // namespace wfd
