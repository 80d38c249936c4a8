// Shared builders for the benchmark harness. Each bench binary prints a
// deterministic "shape table" for its experiment (the analogue of the
// paper's reported results — see EXPERIMENTS.md) and then runs
// google-benchmark timing loops for the same configurations.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "fd/choice_oracle.h"
#include "fd/oracle.h"
#include "sim/environment.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace wfd::bench {

/// A seeded detector oracle over the given components, converging at
/// `stab`.
inline std::unique_ptr<fd::Oracle> seeded_oracle(fd::ChoiceOracle::Options o,
                                                 Time stab) {
  o.stabilization = stab;
  return std::make_unique<fd::ChoiceOracle>(o);
}

inline std::unique_ptr<fd::Oracle> omega_sigma_oracle(Time stab) {
  return seeded_oracle({.omega = true, .sigma = true}, stab);
}

inline std::unique_ptr<fd::Oracle> sigma_oracle(Time stab) {
  return seeded_oracle({.sigma = true}, stab);
}

using PsiBranch = fd::ChoiceOracle::PsiBranch;

inline std::unique_ptr<fd::Oracle> psi_fs_oracle(PsiBranch branch, Time stab) {
  return seeded_oracle({.fs = true, .psi = true, .psi_branch = branch}, stab);
}

inline std::unique_ptr<sim::Scheduler> random_sched() {
  return std::make_unique<sim::RandomFairScheduler>();
}

/// Crash the first `crashes` processes, spread over [0, by).
inline sim::FailurePattern staggered_crashes(int n, int crashes, Time by) {
  sim::FailurePattern f(n);
  for (int i = 0; i < crashes; ++i) {
    f.crash_at(i, (by * static_cast<Time>(i + 1)) /
                      static_cast<Time>(crashes + 1));
  }
  return f;
}

/// Aggregate over per-seed measurements.
struct Series {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  [[nodiscard]] double mean() const {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  }
  [[nodiscard]] double max() const {
    double m = 0.0;
    for (double v : values) m = std::max(m, v);
    return m;
  }
};

inline void table_header(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
}

}  // namespace wfd::bench
