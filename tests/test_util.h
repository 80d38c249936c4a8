// Shared helpers for the test suite: pattern/oracle/scheduler builders
// and a tiny do-nothing process for oracle-only runs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "fd/classic_oracles.h"
#include "fd/heartbeat_omega.h"
#include "fd/fs_oracle.h"
#include "fd/omega_oracle.h"
#include "fd/oracle.h"
#include "fd/psi_oracle.h"
#include "fd/sigma_oracle.h"
#include "sim/environment.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace wfd::test {

/// A pattern with the given (process, crash time) pairs.
inline sim::FailurePattern pattern(
    int n, std::initializer_list<std::pair<ProcessId, Time>> crashes = {}) {
  sim::FailurePattern f(n);
  for (const auto& [p, t] : crashes) f.crash_at(p, t);
  return f;
}

/// Fast-converging oracles so tests keep runs short.
inline std::unique_ptr<fd::Oracle> omega(Time stab = 400) {
  fd::OmegaOracle::Options o;
  o.max_stabilization = stab;
  return std::make_unique<fd::OmegaOracle>(o);
}

inline std::unique_ptr<fd::Oracle> sigma_oracle(
    Time stab = 400,
    fd::SigmaOracle::Mode mode = fd::SigmaOracle::Mode::kCommonCore) {
  fd::SigmaOracle::Options o;
  o.mode = mode;
  o.max_stabilization = stab;
  return std::make_unique<fd::SigmaOracle>(o);
}

inline std::unique_ptr<fd::Oracle> omega_sigma(Time stab = 400) {
  fd::OmegaOracle::Options oo;
  oo.max_stabilization = stab;
  fd::SigmaOracle::Options so;
  so.max_stabilization = stab;
  return std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::OmegaOracle>(oo),
      std::make_unique<fd::SigmaOracle>(so));
}

inline std::unique_ptr<fd::Oracle> fs_oracle(Time lag = 400) {
  fd::FsOracle::Options o;
  o.max_reaction_lag = lag;
  return std::make_unique<fd::FsOracle>(o);
}

inline std::unique_ptr<fd::Oracle> psi_oracle(
    fd::PsiOracle::Branch branch = fd::PsiOracle::Branch::kAuto,
    Time spread = 400, Time stab = 400) {
  fd::PsiOracle::Options o;
  o.branch = branch;
  o.max_switch_spread = spread;
  o.omega.max_stabilization = stab;
  o.sigma.max_stabilization = stab;
  return std::make_unique<fd::PsiOracle>(o);
}

inline std::unique_ptr<fd::Oracle> psi_fs(
    fd::PsiOracle::Branch branch = fd::PsiOracle::Branch::kAuto,
    Time spread = 400, Time stab = 400) {
  fd::FsOracle::Options fo;
  fo.max_reaction_lag = spread;
  fd::PsiOracle::Options po;
  po.branch = branch;
  po.max_switch_spread = spread;
  po.omega.max_stabilization = stab;
  po.sigma.max_stabilization = stab;
  return std::make_unique<fd::TupleOracle>(
      std::make_unique<fd::PsiOracle>(po),
      std::make_unique<fd::FsOracle>(fo));
}

/// HeartbeatOmegaModule timing for a simulator run of n processes: a
/// beat every 4n own steps and a timeout of `timeout_periods` beats,
/// rescaled to global steps (each process takes about one step in n).
/// The lease is two timeouts.
inline fd::HeartbeatOmegaModule::Options heartbeat_timing(
    int n, Time timeout_periods = 8) {
  fd::HeartbeatOmegaModule::Options o;
  o.period = static_cast<Time>(4 * n * n);
  o.timeout = timeout_periods * o.period;
  o.lease = 2 * o.timeout;
  return o;
}

inline std::unique_ptr<sim::Scheduler> random_sched() {
  return std::make_unique<sim::RandomFairScheduler>();
}

inline std::unique_ptr<sim::Scheduler> round_robin() {
  return std::make_unique<sim::RoundRobinScheduler>();
}

/// A process that does nothing (for pure-oracle runs).
class NopProcess : public sim::Process {
 public:
  void on_step(sim::Context&, const sim::Envelope*) override {}
};

/// Build a simulator with NopProcesses (for oracle history tests).
inline sim::Simulator nop_sim(sim::SimConfig cfg, sim::FailurePattern f,
                              std::unique_ptr<fd::Oracle> oracle,
                              std::unique_ptr<sim::Scheduler> sched) {
  sim::Simulator s(cfg, std::move(f), std::move(oracle), std::move(sched));
  for (int i = 0; i < cfg.n; ++i) s.add_process<NopProcess>();
  return s;
}

}  // namespace wfd::test
