#include "explore/scenario.h"

#include <algorithm>

#include "broadcast/atomic_broadcast.h"
#include "broadcast/quasi_reliable.h"
#include "broadcast/reliable_broadcast.h"
#include "common/check.h"
#include "consensus/omega_sigma_consensus.h"
#include "explore/choice_oracle.h"
#include "explore/liveness.h"
#include "explore/seeded_bug.h"
#include "fd/heartbeat_omega.h"
#include "inject/fault_plan.h"
#include "inject/fd_adversary.h"
#include "nbac/nbac_from_qc.h"
#include "qc/psi_qc.h"
#include "reg/abd_register.h"
#include "reg/register_client.h"
#include "sim/scheduler.h"

namespace wfd::explore {

namespace {

/// A process that does nothing: the simulator samples (and records) the
/// oracle at every step regardless, which is all the sigma scenario
/// needs to feed SigmaIntersectionInvariant.
class FdProbeProcess : public sim::Process {
 public:
  void on_step(sim::Context&, const sim::Envelope*) override {}
};

/// Keeps an rb run alive until this process has delivered every
/// broadcast message: UrbModule itself is done once its outbox drains,
/// which would halt the simulator with echoes still in flight. Its
/// state is a pure function of the UrbModule's, so it encodes nothing.
class UrbWaiter : public sim::Module {
 public:
  UrbWaiter(const broadcast::UrbModule* rb, std::uint64_t expect)
      : rb_(rb), expect_(expect) {}
  [[nodiscard]] bool done() const override {
    return rb_->delivered_count() >= expect_;
  }
  void on_message(ProcessId, const sim::Payload&) override {}
  [[nodiscard]] bool tick_noop() const override { return true; }
  void encode_state(sim::StateEncoder&) const override {}

 private:
  const broadcast::UrbModule* rb_;
  std::uint64_t expect_;
};

std::vector<std::int64_t> proposals(int n) {
  std::vector<std::int64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(i % 2);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

/// What a wiring function builds into: the simulator, the scenario's
/// property lists, and the per-process views the liveness clauses read.
struct ScenarioWiring {
  sim::Simulator& sim;
  Scenario& out;
  std::vector<std::function<bool()>> leading;
  std::vector<FdCompletenessClause::View> fd_views;
};

namespace {

using Classes = std::vector<std::vector<ProcessId>>;

// ---- Properties shared by several rows -----------------------------------

/// Agreement and validity on `key` decisions, plus eventual decision.
void add_decision_checks(Scenario& out, const std::string& key,
                         std::vector<std::int64_t> allowed) {
  out.invariants.push_back(std::make_unique<AgreementInvariant>(key));
  out.invariants.push_back(
      std::make_unique<ValidityInvariant>(key, std::move(allowed)));
  out.eventuals.push_back(std::make_unique<EventualDecisionProperty>(key));
}

void add_sigma_check(const ScenarioOptions& opt, Scenario& out) {
  if (opt.record_fd_samples) {
    out.invariants.push_back(std::make_unique<SigmaIntersectionInvariant>());
  }
}

// ---- Wiring, one function per row -----------------------------------------

/// The (Omega, Sigma) consensus protocol, or one of its seeded
/// liveness-bug variants.
template <class Cons>
void wire_omega_sigma_consensus(const ScenarioOptions& opt,
                                ScenarioWiring& w) {
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    consensus::OmegaSigmaConsensusModule<int>* c =
        &host.add_module<Cons>("cons");
    c->propose(i % 2, {});
    w.leading.emplace_back([c] { return c->is_leading(); });
  }
  add_decision_checks(w.out, "decide", proposals(opt.n));
  add_sigma_check(opt, w.out);
}

/// consensus-bug: detector-free, keeping its choice tree purely about
/// schedules.
void wire_first_heard(const ScenarioOptions& opt, ScenarioWiring& w) {
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    host.add_module<FirstHeardConsensusModule>("cons").propose(i % 2);
  }
  add_decision_checks(w.out, "decide", proposals(opt.n));
}

/// Coordinator (p0) proposes 0, everyone else 1: the two-phase bug
/// flips the outcome only when the coordinator dies in its
/// decide-to-broadcast window (see seeded_bug.h). The participants'
/// fallback path reads FS.
void wire_crash_timing(const ScenarioOptions& opt, ScenarioWiring& w) {
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    host.add_module<CrashTimingConsensusModule>("cons").propose(i == 0 ? 0
                                                                      : 1);
  }
  add_decision_checks(w.out, "decide", {0, 1});
}

void wire_qc(const ScenarioOptions& opt, ScenarioWiring& w) {
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    host.add_module<qc::PsiQcModule<int>>("qc").propose(i % 2, {});
  }
  auto allowed = proposals(opt.n);
  allowed.push_back(-1);  // Q.
  add_decision_checks(w.out, "qc-decide", std::move(allowed));
  w.out.invariants.push_back(std::make_unique<QuitValidityInvariant>());
  add_sigma_check(opt, w.out);
}

void wire_nbac(const ScenarioOptions& opt, ScenarioWiring& w) {
  std::vector<nbac::Vote> votes;
  for (int i = 0; i < opt.n; ++i) {
    votes.push_back(i == opt.nbac_no_voter ? nbac::Vote::kNo
                                           : nbac::Vote::kYes);
  }
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    auto& q = host.add_module<qc::PsiQcModule<int>>("qc");
    auto& nb = host.add_module<nbac::NbacFromQcModule>("nbac", &q);
    nb.vote(votes[static_cast<std::size_t>(i)], {});
  }
  w.out.invariants.push_back(
      std::make_unique<AgreementInvariant>("nbac-decide"));
  w.out.invariants.push_back(std::make_unique<NbacValidityInvariant>(votes));
  w.out.eventuals.push_back(
      std::make_unique<EventualDecisionProperty>("nbac-decide"));
}

void wire_sigma(const ScenarioOptions& opt, ScenarioWiring& w) {
  for (int i = 0; i < opt.n; ++i) w.sim.add_process<FdProbeProcess>();
  w.out.invariants.push_back(std::make_unique<SigmaIntersectionInvariant>());
}

/// Sigma-quorum ABD register under a deterministic workload: process 0
/// writes, processes 1..readers read, all against the same replicated
/// register; the shared History feeds the linearizability checker.
/// Without read write-back (register-regular) the register is only
/// regular, which seeds reachable new-old inversions. Lossy links route
/// the register's point-to-point traffic through the quasi-reliable
/// retransmission wrapper.
template <bool kAtomicReads>
void wire_register(const ScenarioOptions& opt, ScenarioWiring& w) {
  auto inv = std::make_unique<RegisterAtomicityInvariant>(0);
  reg::History* hist = &inv->history();
  const bool lossy = opt.loss_drops > 0 || opt.loss_dups > 0;
  const int readers = opt.reg_readers == 0 ? opt.n - 1 : opt.reg_readers;
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    reg::AbdRegisterModule<std::int64_t>::Options ro;
    ro.rule = reg::QuorumRule::kSigma;
    ro.atomic_reads = kAtomicReads;
    auto& r = host.add_module<reg::AbdRegisterModule<std::int64_t>>("reg", ro);
    if (lossy) {
      r.set_transport(&host.add_module<broadcast::QuasiReliableModule>("qr"));
    }
    if (i > readers) continue;  // Pure replica.
    reg::RegisterWorkloadModule::Options wo;
    wo.num_ops = opt.reg_ops;
    wo.write_percent = (i == 0) ? 100 : 0;
    host.add_module<reg::RegisterWorkloadModule>("client", &r, hist, wo);
  }
  w.out.invariants.push_back(std::move(inv));
  add_sigma_check(opt, w.out);
}

/// Chandra-Toueg atomic broadcast over (Omega, Sigma) consensus rounds;
/// the first abcast_senders processes each broadcast one message and the
/// invariant checks prefix-consistent delivery logs.
void wire_abcast(const ScenarioOptions& opt, ScenarioWiring& w) {
  auto inv = std::make_unique<TotalOrderInvariant>(opt.n);
  TotalOrderInvariant* tot = inv.get();
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    auto& ab = host.add_module<broadcast::AtomicBroadcastModule>("abcast");
    const auto p = static_cast<ProcessId>(i);
    ab.set_deliver([tot, p](const broadcast::AppMessage& m) {
      tot->record(p, static_cast<std::uint64_t>(m.origin), m.seq, m.body);
    });
    if (i < opt.abcast_senders) ab.abcast(100 + i);
  }
  w.out.invariants.push_back(std::move(inv));
}

/// Uniform reliable broadcast alone, detector-free: the first
/// abcast_senders processes each urb-broadcast one message and the
/// invariant checks integrity (each message delivered at most once per
/// process, and only messages actually broadcast). The echo relay storm
/// is the content-dependence showcase: equal-content echoes from
/// distinct relayers all commute, so DPOR under the payload relation
/// collapses the relayer interleavings that the process relation must
/// enumerate.
void wire_rb(const ScenarioOptions& opt, ScenarioWiring& w) {
  auto inv =
      std::make_unique<UrbIntegrityInvariant>(opt.n, opt.abcast_senders);
  UrbIntegrityInvariant* urb = inv.get();
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    auto& rb = host.add_module<broadcast::UrbModule>("rb");
    const auto p = static_cast<ProcessId>(i);
    rb.set_deliver([urb, p](const broadcast::AppMessage& m) {
      urb->record(p, static_cast<std::uint64_t>(m.origin), m.seq, m.body);
    });
    if (i < opt.abcast_senders) rb.urb_broadcast(100 + i);
    host.add_module<UrbWaiter>(
        "wait", &rb, static_cast<std::uint64_t>(opt.abcast_senders));
  }
  w.out.invariants.push_back(std::move(inv));
}

/// The *implemented* heartbeat/lease Omega (the module the runtime host
/// runs behind the replicated KV), model-checked as an ordinary module:
/// no oracle component is enabled, so the only nondeterminism is the
/// schedule (plus injected crashes). The eventual property is the Omega
/// specification itself — on fair-enough schedules every correct
/// process's *last* emitted leader is the smallest correct process.
/// Timing is deliberately conservative (timeout = 12 periods, with
/// adaptive doubling on any false suspicion) so random fair schedules
/// within the horizon count as "synchronous enough".
void wire_omega_impl(const ScenarioOptions& opt, ScenarioWiring& w) {
  fd::HeartbeatOmegaModule::Options ho;
  ho.period = static_cast<Time>(2 * opt.n);
  ho.timeout = 12 * ho.period;
  ho.lease = 2 * ho.timeout;
  for (int i = 0; i < opt.n; ++i) {
    auto& host = w.sim.add_process<sim::ModularProcess>();
    fd::HeartbeatOmegaModule* om =
        &host.add_module<fd::HeartbeatOmegaModule>("omega", ho);
    w.fd_views.push_back(FdCompletenessClause::View{
        [om] { return om->current_leader(); },
        [om] { return om->suspected().raw(); }});
  }
  w.out.eventuals.push_back(
      std::make_unique<EventualLeadershipProperty>("omega-leader"));
}

// ---- Symmetry rules --------------------------------------------------------

/// Initial proposals are i % 2: same-parity processes run identical
/// modules with identical inputs.
Classes parity_classes(const ScenarioOptions& opt) {
  Classes out(2);
  for (int i = 0; i < opt.n; ++i) out[i % 2].push_back(i);
  return out;
}

/// Every Yes voter is interchangeable; the No voter (if any) is a
/// singleton role.
Classes yes_voter_class(const ScenarioOptions& opt) {
  Classes out(1);
  for (int i = 0; i < opt.n; ++i) {
    if (i != opt.nbac_no_voter) out[0].push_back(i);
  }
  return out;
}

/// Pure FD probes: every process is identical.
Classes all_processes(const ScenarioOptions& opt) {
  Classes out(1);
  for (int i = 0; i < opt.n; ++i) out[0].push_back(i);
  return out;
}

/// Process 0 writes; 1..readers read; the rest are pure replicas.
Classes register_roles(const ScenarioOptions& opt) {
  const int readers = opt.reg_readers == 0 ? opt.n - 1 : opt.reg_readers;
  Classes out(2);
  for (int i = 1; i < opt.n; ++i) out[i <= readers ? 0 : 1].push_back(i);
  return out;
}

}  // namespace

// The problem table. abcast/rb broadcast distinct values per sender,
// consensus-crash-bug has a distinguished coordinator, omega-impl elects
// by smallest pid, and the liveness-bug variants were never verified
// symmetric — none has a symmetry rule.
// omega-impl's modules are services that are never done, so bounded
// safety has nothing to check on it; exhaustive mode serves
// --liveness=fd-completeness and randomized campaigns its eventual
// leadership.
std::span<const ProblemSpec> ScenarioFactory::problems() {
  constexpr Detectors kNone{};
  constexpr Detectors kOmegaSigma{.omega = true, .sigma = true};
  constexpr Detectors kSigma{.sigma = true};
  constexpr Detectors kPsi{.psi = true};
  constexpr Detectors kPsiFs{.psi = true, .fs = true};
  constexpr Detectors kFs{.fs = true};
  using consensus::OmegaSigmaConsensusModule;
  static constexpr ProblemSpec kProblems[] = {
      {"consensus", kOmegaSigma, {"termination", "leadership"},
       parity_classes, true,
       wire_omega_sigma_consensus<OmegaSigmaConsensusModule<int>>},
      {"consensus-bug", kNone, {"termination"}, parity_classes, true,
       wire_first_heard},
      {"consensus-crash-bug", kFs, {}, nullptr, true, wire_crash_timing},
      {"consensus-live-bug", kOmegaSigma, {"termination", "leadership"},
       nullptr, true,
       wire_omega_sigma_consensus<GiveUpLeaderConsensusModule>},
      {"consensus-crash-live-bug", kOmegaSigma,
       {"termination", "leadership"}, nullptr, true,
       wire_omega_sigma_consensus<DeferToPromisedConsensusModule>},
      {"qc", kPsi, {"termination"}, parity_classes, true, wire_qc},
      {"nbac", kPsiFs, {"termination"}, yes_voter_class, true, wire_nbac},
      {"sigma", kSigma, {}, all_processes, true, wire_sigma},
      {"register", kSigma, {}, register_roles, true, wire_register<true>},
      {"register-regular", kSigma, {}, register_roles, true,
       wire_register<false>},
      {"abcast", kOmegaSigma, {}, nullptr, true, wire_abcast},
      {"rb", kNone, {"termination"}, nullptr, true, wire_rb},
      {"omega-impl", kNone, {"fd-completeness"}, nullptr, false,
       wire_omega_impl},
  };
  return kProblems;
}

const ProblemSpec* ScenarioFactory::find(std::string_view problem) {
  for (const ProblemSpec& p : problems()) {
    if (p.name == problem) return &p;
  }
  return nullptr;
}

ScenarioFactory::ScenarioFactory(ScenarioOptions opt)
    : opt_(std::move(opt)), spec_(find(opt_.problem)) {
  WFD_CHECK_MSG(validate(opt_).empty(), "invalid scenario options");
}

std::string ScenarioFactory::validate(const ScenarioOptions& opt) {
  const ProblemSpec* spec = find(opt.problem);
  if (opt.n < 1 || opt.n > kMaxProcesses) return "n out of range";
  if (opt.crashes < 0 || opt.crashes >= opt.n) {
    return "crashes must be in [0, n)";
  }
  if (opt.max_steps == 0) return "max_steps must be positive";
  if (spec != nullptr && spec->fd.needs_majority() &&
      2 * opt.crashes >= opt.n) {
    return "problem '" + opt.problem +
           "' explores Sigma histories and needs a majority-correct "
           "pattern (crashes < n/2)";
  }
  if (opt.crash_mode != "script" && opt.crash_mode != "explore") {
    return "crash_mode must be 'script' or 'explore'";
  }
  if (opt.crash_mode == "explore") {
    if (opt.crash_time != kNever) {
      return "crash_mode 'explore' picks crash times itself; crash_time "
             "must stay unset";
    }
    if (opt.stabilization != kNever) {
      return "crash_mode 'explore' reconstructs the pattern on the fly; "
             "a finite stabilization time is not supported";
    }
  }
  if (opt.loss_drops < 0 || opt.loss_dups < 0) {
    return "loss budgets must be non-negative";
  }
  if (opt.fd_adversarial && opt.stabilization != kNever) {
    return "fd_adversarial defers convergence past the horizon and "
           "requires stabilization == kNever";
  }
  if (spec == nullptr) return "unknown problem '" + opt.problem + "'";
  if (opt.nbac_no_voter != kNoProcess &&
      (opt.nbac_no_voter < 0 || opt.nbac_no_voter >= opt.n)) {
    return "nbac_no_voter out of range";
  }
  if (opt.reg_ops < 1) return "reg_ops must be positive";
  if (opt.reg_readers < 0 || opt.reg_readers >= opt.n) {
    return "reg_readers must be in [0, n)";
  }
  if (opt.abcast_senders < 1 || opt.abcast_senders > opt.n) {
    return "abcast_senders must be in [1, n]";
  }
  if (!opt.liveness.empty()) {
    const auto& clauses = spec->liveness;
    if (std::find(clauses.begin(), clauses.end(), opt.liveness) ==
        clauses.end()) {
      std::string avail;
      for (std::string_view c : clauses) {
        if (c.empty()) continue;
        if (!avail.empty()) avail += ", ";
        avail += c;
      }
      return "liveness clause '" + opt.liveness + "' is not available for "
             "problem '" + opt.problem + "'" +
             (avail.empty() ? "" : " (available: " + avail + ")");
    }
    // Fair-cycle search reads every infinite unrolling of a graph cycle
    // as a run of the system, so each source of nondeterminism must be
    // legal *in the limit* — not merely prefix-legal — and the enabled
    // menu at a state must be a function of its fingerprint alone.
    if (opt.fd_adversarial) {
      return "liveness checking needs limit-legal detector histories; "
             "fd_adversarial explores prefix-legal flapping";
    }
    if (opt.stabilization != kNever) {
      return "liveness checking folds convergence into the static "
             "history itself; stabilization must stay unset";
    }
    if (opt.n > kLiveChannelStride) {
      return "liveness checking tracks communication fairness per "
             "directed channel in an n x n bitset and supports n <= " +
             std::to_string(kLiveChannelStride);
    }
    if (spec->fd.any() && opt.fd_per_query) {
      return "liveness checking requires --fd=static on oracle-backed "
             "problems: a cycle of per-query detector choices is a "
             "flapping history, illegal in the limit";
    }
    // Static Omega/Sigma histories anticipate explored crashes (the
    // oracle re-picks invalidated values at each crash point, so the
    // limit history is converged for the final crash set), but FS has
    // no such repair: a per-query green-after-crash choice is legal in
    // every prefix yet illegal in the limit, so an FS component cannot
    // compose with a crash budget.
    if (spec->fd.fs && opt.crashes > 0) {
      return "liveness checking on " + opt.problem +
             " requires a crash-free pattern: the FS component's "
             "per-query choices are illegal in the limit under explored "
             "crashes";
    }
    if (opt.crashes > 0 && opt.crash_mode != "explore") {
      return "liveness checking requires crash_mode 'explore' when "
             "crashes > 0: scripted crash times make the enabled menu a "
             "function of absolute time, not of the state fingerprint";
    }
  }
  return "";
}

bool ScenarioFactory::pattern_sensitive(const ScenarioOptions& opt) {
  const ProblemSpec* spec = find(opt.problem);
  return spec != nullptr && spec->fd.pattern_sensitive();
}

std::vector<std::vector<ProcessId>> ScenarioFactory::symmetry_classes(
    const ScenarioOptions& opt) {
  // Scripted crashes pin concrete process ids (faulty set = the first
  // `crashes` processes at fixed times): no renaming maps those runs to
  // runs. Explored crashes draw from symmetric per-process budgets.
  if (opt.crashes > 0 && opt.crash_mode != "explore") return {};
  // After stabilization the oracle's outputs collapse to min(correct),
  // which renaming does not commute with; kNever keeps every query a
  // symmetric menu choice.
  if (opt.stabilization != kNever) return {};
  const ProblemSpec* spec = find(opt.problem);
  if (spec == nullptr || spec->symmetry == nullptr) return {};
  Classes classes = spec->symmetry(opt);
  std::erase_if(classes, [](const auto& cls) { return cls.size() < 2; });
  return classes;
}

sim::FailurePattern ScenarioFactory::make_pattern(
    sim::ChoiceSource& choices) const {
  sim::FailurePattern f(opt_.n);
  // In explore mode `crashes` is an injection budget, not a script: the
  // pattern starts all-correct and grows as the explorer injects.
  if (opt_.crashes == 0 || opt_.crash_mode == "explore") return f;
  if (opt_.crash_time != kNever) {
    for (int i = 0; i < opt_.crashes; ++i) {
      f.crash_at(i, opt_.crash_time * static_cast<Time>(i + 1));
    }
    return f;
  }
  // Crash times are part of the explored space: a small log-spaced menu
  // inside the horizon (0 = initially dead, up to half the horizon).
  std::vector<std::uint64_t> menu = {0, 2, opt_.max_steps / 8,
                                     opt_.max_steps / 4, opt_.max_steps / 2};
  std::sort(menu.begin(), menu.end());
  menu.erase(std::unique(menu.begin(), menu.end()), menu.end());
  for (int i = 0; i < opt_.crashes; ++i) {
    const std::size_t pick =
        menu.size() >= 2 ? choices.choose(sim::ChoiceKind::kEnvironment, menu)
                         : 0;
    f.crash_at(i, menu[pick]);
  }
  return f;
}

Scenario ScenarioFactory::build(sim::ChoiceSource& choices) const {
  Scenario out;
  const sim::FailurePattern pattern = make_pattern(choices);
  const sim::SimConfig cfg{opt_.n, opt_.max_steps, opt_.seed,
                           opt_.record_fd_samples};
  const Detectors& fd = spec_->fd;

  ChoiceOracle::Options oo;
  oo.per_query = opt_.fd_per_query;
  oo.stabilization = opt_.stabilization;
  // Liveness mode: Psi must be a converged limit from the start (see
  // validate()); harmless when no Psi component is enabled.
  oo.psi_converged = !opt_.liveness.empty();
  oo.omega = fd.omega;
  oo.sigma = fd.sigma;
  oo.psi = fd.psi;
  oo.fs = fd.fs;

  const bool crash_explore = opt_.crash_mode == "explore";
  // With injected crashes the pattern evolves mid-run; the oracle must
  // track it so its menus stay legal for the pattern actually realised.
  oo.live_pattern = crash_explore;

  inject::FaultPlan fp;
  fp.crash_mode = crash_explore ? inject::CrashMode::kExplore
                  : opt_.crashes > 0 ? inject::CrashMode::kScript
                                     : inject::CrashMode::kNone;
  fp.crash_budget = crash_explore ? opt_.crashes : 0;
  fp.min_alive = fd.needs_majority() ? opt_.n / 2 + 1 : 1;
  fp.drop_budget = opt_.loss_drops;
  fp.dup_budget = opt_.loss_dups;
  std::unique_ptr<inject::FaultState> faults;
  if (fp.any()) faults = std::make_unique<inject::FaultState>(fp);

  sim::ReplayScheduler::Options so;
  so.oldest_per_channel = opt_.oldest_per_channel;
  so.faults = faults.get();

  std::unique_ptr<fd::Oracle> oracle;
  if (opt_.fd_adversarial) {
    oracle = std::make_unique<inject::FdAdversary>(&choices, oo);
  } else {
    oracle = std::make_unique<ChoiceOracle>(&choices, oo);
  }

  out.sim = std::make_unique<sim::Simulator>(
      cfg, pattern, std::move(oracle),
      std::make_unique<sim::ReplayScheduler>(&choices, so));
  if (faults != nullptr) out.sim->adopt_faults(std::move(faults));

  // Under injection the detector history must stay legal for the pattern
  // the run actually reconstructs — cross-check the prefix-checkable
  // clauses of the enabled components via fd/history_checker.
  if ((opt_.fd_adversarial || crash_explore) && opt_.record_fd_samples &&
      fd.pattern_sensitive()) {
    out.invariants.push_back(
        std::make_unique<FdPrefixInvariant>(fd.fs, fd.psi));
  }

  ScenarioWiring w{*out.sim, out, {}, {}};
  spec_->wire(opt_, w);

  if (opt_.liveness == "termination") {
    out.liveness.push_back(std::make_unique<TerminationClause>());
  } else if (opt_.liveness == "leadership") {
    WFD_CHECK(!w.leading.empty());
    out.liveness.push_back(
        std::make_unique<LeadershipClause>(std::move(w.leading)));
  } else if (!opt_.liveness.empty()) {
    WFD_CHECK_MSG(opt_.liveness == "fd-completeness" && !w.fd_views.empty(),
                  "liveness clause survived validate() unwired");
    out.liveness.push_back(
        std::make_unique<FdCompletenessClause>(std::move(w.fd_views)));
  }
  return out;
}

std::optional<std::uint64_t> scenario_fingerprint(const Scenario& sc) {
  // Must stay bit-identical to the explorer's no-renaming fingerprint:
  // the explorer keys liveness graph nodes with it and run_lasso checks
  // loop closure against it.
  sim::StateEncoder enc;
  sc.sim->encode_state(enc);
  std::size_t i = 0;
  for (const auto& inv : sc.invariants) {
    enc.push("invariant", i++);
    inv->encode_state(enc);
    enc.pop();
  }
  if (!enc.complete()) return std::nullopt;
  return enc.digest();
}

ScenarioBuilder ScenarioFactory::builder() const {
  return [factory = *this](sim::ChoiceSource& choices) {
    return factory.build(choices);
  };
}

}  // namespace wfd::explore
