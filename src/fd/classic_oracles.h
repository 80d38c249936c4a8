// Oracles for the classic Chandra-Toueg suspicion-list detectors:
// the perfect detector P, the eventually perfect detector <>P and the
// eventually strong detector <>S. They populate FdValue::suspected.
//
// These are not used by the paper's own algorithms but anchor the related
// work (e.g. Fromentin et al.'s result that pairwise NBAC needs P) and
// the hierarchy bench (E10).
#pragma once

#include <vector>

#include "common/rng.h"
#include "fd/oracle.h"

namespace wfd::fd {

/// P: strong accuracy (no process suspected before it crashes) and strong
/// completeness (crashed processes eventually suspected by everyone).
class PerfectOracle : public Oracle {
 public:
  struct Options {
    Time max_detection_lag = 64;  ///< Suspicion appears within this lag.
  };

  PerfectOracle() : PerfectOracle(Options{}) {}
  explicit PerfectOracle(Options opt) : opt_(opt), rng_(0) {}

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  FdValue query(ProcessId p, Time t) override;

 private:
  Options opt_;
  Rng rng_;
  sim::FailurePattern pattern_{1};
  std::vector<Time> lag_;
};

/// S (Strong): strong completeness plus *perpetual* weak accuracy — one
/// fixed correct process is never suspected by anyone, from the start.
/// The Chandra-Toueg S-based consensus (StrongConsensusModule) is
/// correct in any environment with this class, and P is a subclass.
class StrongOracle : public Oracle {
 public:
  struct Options {
    Time max_detection_lag = 64;
    /// Force the never-suspected process; kNoProcess picks a random
    /// correct one.
    ProcessId fixed_trusted = kNoProcess;
  };

  StrongOracle() : StrongOracle(Options{}) {}
  explicit StrongOracle(Options opt) : opt_(opt), rng_(0) {}

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  FdValue query(ProcessId p, Time t) override;

  [[nodiscard]] ProcessId trusted() const { return trusted_; }

 private:
  Options opt_;
  Rng rng_;
  sim::FailurePattern pattern_{1};
  ProcessId trusted_ = kNoProcess;
  std::vector<Time> lag_;
};

/// <>P: arbitrary suspicions before a convergence time, exact crash
/// information (with lag) afterwards.
class EventuallyPerfectOracle : public Oracle {
 public:
  struct Options {
    Time max_stabilization = kNever;  ///< kNever = horizon / 8.
    Time max_detection_lag = 64;
  };

  EventuallyPerfectOracle() : EventuallyPerfectOracle(Options{}) {}
  explicit EventuallyPerfectOracle(Options opt) : opt_(opt), rng_(0) {}

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  FdValue query(ProcessId p, Time t) override;

 private:
  Options opt_;
  Rng rng_;
  sim::FailurePattern pattern_{1};
  std::vector<Time> converge_at_;
  std::vector<Time> lag_;
};

/// <>S: eventual strong completeness, plus one correct process that is
/// eventually never suspected by any correct process.
class EventuallyStrongOracle : public Oracle {
 public:
  struct Options {
    Time max_stabilization = kNever;  ///< kNever = horizon / 8.
  };

  EventuallyStrongOracle() : EventuallyStrongOracle(Options{}) {}
  explicit EventuallyStrongOracle(Options opt) : opt_(opt), rng_(0) {}

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  FdValue query(ProcessId p, Time t) override;

  [[nodiscard]] ProcessId trusted() const { return trusted_; }

 private:
  Options opt_;
  Rng rng_;
  sim::FailurePattern pattern_{1};
  ProcessId trusted_ = kNoProcess;
  std::vector<Time> converge_at_;
};

}  // namespace wfd::fd
