// wfd_sim — scenario runner for the weakest-failure-detector library.
//
// Runs one protocol instance in a configurable simulated system and
// reports the outcome and costs. Examples:
//
//   wfd_sim --problem=consensus --n=5 --crashes=4 --seed=7
//   wfd_sim --problem=nbac --n=4 --crashes=1 --branch=fs
//   wfd_sim --problem=register --n=5 --crashes=4 --rule=majority
//   wfd_sim --problem=qc --n=4 --branch=omegasigma --scheduler=rr
//   wfd_sim --problem=abcast --n=4 --crashes=1
//
// Every run is deterministic in --seed; crashes are staggered over the
// first --crash-window steps.
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/atomic_broadcast.h"
#include "consensus/omega_sigma_consensus.h"
#include "explore/option_text.h"
#include "fd/fs_oracle.h"
#include "fd/omega_oracle.h"
#include "fd/oracle.h"
#include "fd/psi_oracle.h"
#include "fd/sigma_oracle.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "reg/abd_register.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "sim/module.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

using namespace wfd;

namespace {

struct Args {
  std::string problem = "consensus";
  int n = 5;
  int crashes = 0;
  Time crash_window = 2000;
  std::uint64_t seed = 1;
  Time steps = 400000;
  std::string scheduler = "random";
  std::string branch = "auto";      // For qc / nbac: psi branch.
  std::string rule = "sigma";       // For register: quorum rule.
  Time stabilization = 800;
};

void usage() {
  std::printf(
      "usage: wfd_sim [--problem=consensus|qc|nbac|register|abcast]\n"
      "               [--n=N] [--crashes=K] [--crash-window=T]\n"
      "               [--seed=S] [--steps=T] [--stab=T]\n"
      "               [--scheduler=random|rr|psync]\n"
      "               [--branch=auto|omegasigma|fs]   (qc/nbac)\n"
      "               [--rule=sigma|majority]         (register)\n");
}

/// Strict decimal count in [0, max]: a sign, trailing garbage or an
/// out-of-range value fails instead of being read as some other number.
bool parse_count(const std::string& s, int max, int* out) {
  std::uint64_t v = 0;
  if (!explore::detail::parse_u64(s, &v) ||
      v > static_cast<std::uint64_t>(max)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// True when `v` is one of the spellings a flag accepts.
bool one_of(const std::string& v, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (v == name) return true;
  }
  return false;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") return false;
    bool ok = true;
    if (auto v = val("problem")) {
      a.problem = *v;
    } else if (auto v2 = val("n")) {
      ok = parse_count(*v2, kMaxProcesses, &a.n);
    } else if (auto v3 = val("crashes")) {
      ok = parse_count(*v3, kMaxProcesses - 1, &a.crashes);
    } else if (auto v4 = val("seed")) {
      ok = explore::detail::parse_u64(*v4, &a.seed);
    } else if (auto v5 = val("steps")) {
      ok = explore::detail::parse_u64(*v5, &a.steps);
    } else if (auto v6 = val("scheduler")) {
      a.scheduler = *v6;
      ok = one_of(a.scheduler, {"random", "rr", "psync"});
    } else if (auto v7 = val("branch")) {
      a.branch = *v7;
      ok = one_of(a.branch, {"auto", "omegasigma", "fs"});
    } else if (auto v8 = val("rule")) {
      a.rule = *v8;
      ok = one_of(a.rule, {"sigma", "majority"});
    } else if (auto v9 = val("crash-window")) {
      ok = explore::detail::parse_u64(*v9, &a.crash_window);
    } else if (auto v10 = val("stab")) {
      ok = explore::detail::parse_u64(*v10, &a.stabilization);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value: %s\n", arg.c_str());
      return false;
    }
  }
  if (a.n < 1 || a.crashes >= a.n) {
    std::fprintf(stderr, "invalid n/crashes\n");
    return false;
  }
  return true;
}

std::unique_ptr<sim::Scheduler> make_scheduler(const Args& a) {
  if (a.scheduler == "rr") return std::make_unique<sim::RoundRobinScheduler>();
  if (a.scheduler == "psync") {
    return std::make_unique<sim::PartialSynchronyScheduler>(a.steps / 8);
  }
  return std::make_unique<sim::RandomFairScheduler>();
}

fd::PsiOracle::Branch psi_branch(const Args& a) {
  if (a.branch == "omegasigma") return fd::PsiOracle::Branch::kOmegaSigma;
  if (a.branch == "fs") return fd::PsiOracle::Branch::kFs;
  return fd::PsiOracle::Branch::kAuto;
}

sim::FailurePattern make_pattern(const Args& a) {
  sim::FailurePattern f(a.n);
  for (int i = 0; i < a.crashes; ++i) {
    f.crash_at(i, (a.crash_window * static_cast<Time>(i + 1)) /
                      static_cast<Time>(a.crashes + 1));
  }
  return f;
}

void report_run(const sim::Simulator& s, const sim::RunResult& res) {
  std::printf("\nrun: %llu steps, %llu messages sent, %llu delivered, "
              "all-done=%s\n",
              static_cast<unsigned long long>(res.steps),
              static_cast<unsigned long long>(
                  s.trace().stats().messages_sent),
              static_cast<unsigned long long>(
                  s.trace().stats().messages_delivered),
              res.all_done ? "yes" : "NO");
}

int run_consensus(const Args& a) {
  fd::OmegaOracle::Options oo;
  oo.max_stabilization = a.stabilization;
  fd::SigmaOracle::Options so;
  so.max_stabilization = a.stabilization;
  sim::SimConfig cfg{a.n, a.steps, a.seed, false};
  sim::Simulator s(cfg, make_pattern(a),
                   std::make_unique<fd::TupleOracle>(
                       std::make_unique<fd::OmegaOracle>(oo),
                       std::make_unique<fd::SigmaOracle>(so)),
                   make_scheduler(a));
  std::vector<std::optional<int>> decisions(a.n);
  for (int i = 0; i < a.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& c = host.add_module<consensus::OmegaSigmaConsensusModule<int>>(
        "cons");
    c.propose(i % 2, [&decisions, i](const int& d) {
      decisions[static_cast<std::size_t>(i)] = d;
    });
  }
  const auto res = s.run();
  for (int i = 0; i < a.n; ++i) {
    std::printf("p%d: %s\n", i,
                decisions[static_cast<std::size_t>(i)].has_value()
                    ? std::to_string(*decisions[static_cast<std::size_t>(i)])
                          .c_str()
                    : "-");
  }
  report_run(s, res);
  return res.all_done ? 0 : 2;
}

int run_qc(const Args& a) {
  fd::PsiOracle::Options po;
  po.branch = psi_branch(a);
  po.max_switch_spread = a.stabilization;
  sim::FailurePattern f = make_pattern(a);
  if (po.branch == fd::PsiOracle::Branch::kFs && f.faulty().empty()) {
    std::fprintf(stderr, "--branch=fs requires --crashes >= 1\n");
    return 1;
  }
  sim::SimConfig cfg{a.n, a.steps, a.seed, false};
  sim::Simulator s(cfg, f, std::make_unique<fd::PsiOracle>(po),
                   make_scheduler(a));
  std::vector<std::optional<qc::QcResult<int>>> results(a.n);
  for (int i = 0; i < a.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    q.propose(i % 2, [&results, i](const qc::QcResult<int>& r) {
      results[static_cast<std::size_t>(i)] = r;
    });
  }
  const auto res = s.run();
  for (int i = 0; i < a.n; ++i) {
    const auto& r = results[static_cast<std::size_t>(i)];
    std::printf("p%d: %s\n", i,
                !r.has_value() ? "-"
                : r->quit      ? "Q"
                               : std::to_string(r->value).c_str());
  }
  report_run(s, res);
  return res.all_done ? 0 : 2;
}

int run_nbac(const Args& a) {
  fd::PsiOracle::Options po;
  po.branch = psi_branch(a);
  po.max_switch_spread = a.stabilization;
  fd::FsOracle::Options fo;
  fo.max_reaction_lag = a.stabilization;
  sim::FailurePattern f = make_pattern(a);
  if (po.branch == fd::PsiOracle::Branch::kFs && f.faulty().empty()) {
    std::fprintf(stderr, "--branch=fs requires --crashes >= 1\n");
    return 1;
  }
  sim::SimConfig cfg{a.n, a.steps, a.seed, false};
  sim::Simulator s(cfg, f,
                   std::make_unique<fd::TupleOracle>(
                       std::make_unique<fd::PsiOracle>(po),
                       std::make_unique<fd::FsOracle>(fo)),
                   make_scheduler(a));
  std::vector<std::optional<nbac::Decision>> decisions(a.n);
  for (int i = 0; i < a.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", &q);
    nb.vote(nbac::Vote::kYes, [&decisions, i](nbac::Decision d) {
      decisions[static_cast<std::size_t>(i)] = d;
    });
  }
  const auto res = s.run();
  for (int i = 0; i < a.n; ++i) {
    const auto& d = decisions[static_cast<std::size_t>(i)];
    std::printf("p%d: %s\n", i,
                !d.has_value()                      ? "-"
                : *d == nbac::Decision::kCommit     ? "COMMIT"
                                                    : "ABORT");
  }
  report_run(s, res);
  return res.all_done ? 0 : 2;
}

int run_register(const Args& a) {
  const bool sigma = a.rule != "majority";
  sim::SimConfig cfg{a.n, a.steps, a.seed, false};
  fd::SigmaOracle::Options so;
  so.max_stabilization = a.stabilization;
  auto oracle = sigma ? std::unique_ptr<fd::Oracle>(
                            std::make_unique<fd::SigmaOracle>(so))
                      : std::make_unique<fd::NullOracle>();
  sim::Simulator s(cfg, make_pattern(a), std::move(oracle),
                   make_scheduler(a));
  reg::History history;
  reg::AbdRegisterModule<std::int64_t>::Options ropt;
  ropt.rule = sigma ? reg::QuorumRule::kSigma : reg::QuorumRule::kMajority;
  reg::RegisterWorkloadModule::Options wopt;
  wopt.num_ops = 4;
  for (int i = 0; i < a.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& r =
        host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg", ropt);
    host.add_module<reg::RegisterWorkloadModule>("load", &r, &history, wopt);
  }
  const auto res = s.run();
  const auto lin = reg::check_linearizable(history);
  std::printf("ops completed: %zu / %zu, linearizable: %s\n",
              history.completed(), history.ops().size(),
              lin.ok ? "yes" : lin.violation.c_str());
  report_run(s, res);
  return (res.all_done && lin.ok) ? 0 : 2;
}

int run_abcast(const Args& a) {
  fd::OmegaOracle::Options oo;
  oo.max_stabilization = a.stabilization;
  fd::SigmaOracle::Options so;
  so.max_stabilization = a.stabilization;
  sim::SimConfig cfg{a.n, a.steps, a.seed, false};
  sim::Simulator s(cfg, make_pattern(a),
                   std::make_unique<fd::TupleOracle>(
                       std::make_unique<fd::OmegaOracle>(oo),
                       std::make_unique<fd::SigmaOracle>(so)),
                   make_scheduler(a));
  std::vector<broadcast::AtomicBroadcastModule*> abs;
  for (int i = 0; i < a.n; ++i) {
    auto& host = s.add_process<sim::ModularProcess>();
    auto& ab = host.add_module<broadcast::AtomicBroadcastModule>("ab");
    ab.abcast(i + 1);
    ab.abcast(100 + i);
    abs.push_back(&ab);
  }
  const auto res = s.run();
  s.set_halt_on_done(false);
  s.run_for(50000);
  for (int i = 0; i < a.n; ++i) {
    std::printf("p%d log:", i);
    for (const auto& m : abs[static_cast<std::size_t>(i)]->delivered_log()) {
      std::printf(" %lld", static_cast<long long>(m.body));
    }
    std::printf("\n");
  }
  report_run(s, res);
  return res.all_done ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 1;
  }
  std::printf("wfd_sim: problem=%s n=%d crashes=%d scheduler=%s seed=%llu\n",
              a.problem.c_str(), a.n, a.crashes, a.scheduler.c_str(),
              static_cast<unsigned long long>(a.seed));
  if (a.problem == "consensus") return run_consensus(a);
  if (a.problem == "qc") return run_qc(a);
  if (a.problem == "nbac") return run_nbac(a);
  if (a.problem == "register") return run_register(a);
  if (a.problem == "abcast") return run_abcast(a);
  std::fprintf(stderr, "unknown problem: %s\n", a.problem.c_str());
  usage();
  return 1;
}
