// Scenario factory: builds fresh, fully choice-driven instances of the
// library's canonical problems so the explorer, the campaign driver and
// the replay machinery all run the SAME construction — a run is a pure
// function of its decision sequence.
//
// Every source of nondeterminism is routed through the ChoiceSource
// handed to build(): the schedule (ReplayScheduler), the detector
// history (ChoiceOracle) and, when crash times are not pinned, the
// failure pattern itself (kEnvironment choices over a small menu of
// crash times).
//
// Each problem is one row of a static table (ProblemSpec): its detector
// components, liveness clauses, symmetry rule, whether it has safety
// invariants, and a wiring function. Everything that depends on the
// problem — validation, the oracle's components, the fault plan's
// majority floor, the explorer's reduction gates — reads the row; no
// rule is keyed on the problem's name.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "explore/property.h"
#include "sim/choice.h"
#include "sim/simulator.h"

namespace wfd::explore {

struct ScenarioOptions {
  /// A ProblemSpec name (ScenarioFactory::problems()).
  std::string problem = "consensus";
  int n = 3;
  int crashes = 0;
  /// "script": crashes happen at pre-scripted times (crash_time below, or
  /// a kEnvironment menu). "explore": crash timing is a per-step schedule
  /// choice — `crashes` becomes the injection budget, the scripted
  /// pattern stays empty, and the pattern is reconstructed on the fly as
  /// the explorer injects (see src/inject/fault_plan.h).
  std::string crash_mode = "script";
  /// Per-directed-link injected-loss budgets (0 = reliable links). The
  /// register problems route their traffic through the quasi-reliable
  /// retransmission wrapper when either is nonzero.
  int loss_drops = 0;
  int loss_dups = 0;
  /// kNever: crash times are exploration choice points (a small menu of
  /// times within the horizon). Otherwise faulty process i crashes at
  /// crash_time * (i + 1).
  Time crash_time = kNever;
  /// Horizon; doubles as the exploration depth bound.
  Time max_steps = 40;
  std::uint64_t seed = 1;
  /// ChoiceOracle stabilization time (kNever = adversarial throughout;
  /// finite values make liveness meaningful for campaign runs).
  Time stabilization = kNever;
  /// false: one static detector history per run instead of per-query
  /// choices — a much smaller tree. Per-query histories under
  /// crash_mode "explore" are the most hostile detector the explorer
  /// models: every query ranges over what is legal for the evolving
  /// pattern.
  bool fd_per_query = true;
  /// Retain FD samples so SigmaIntersectionInvariant can see quorums.
  bool record_fd_samples = true;
  /// For nbac: the process voting No, or kNoProcess for unanimous Yes.
  ProcessId nbac_no_voter = kNoProcess;
  /// For register problems: operations per client (process 0 writes,
  /// everyone else reads; deterministic workloads so the state stays
  /// fingerprintable).
  int reg_ops = 2;
  /// How many reading clients (processes 1..reg_readers); the remaining
  /// processes are pure replicas. 0 = every non-writer reads. One writer
  /// plus one reader is the classic atomicity scenario and keeps the
  /// n=3 tree small enough to exhaust.
  int reg_readers = 0;
  /// For abcast: how many processes broadcast one message each.
  int abcast_senders = 2;
  /// ReplayScheduler reduction (see its Options): false (--all-pending)
  /// offers every pending message, i.e. non-FIFO channels.
  bool oldest_per_channel = true;
  /// Liveness clause to check by fair-cycle search over the explored
  /// state graph (empty = bounded safety checking only). Clause names
  /// and per-problem availability: ProblemSpec::liveness.
  /// Liveness mode constrains the rest of the scenario (static converged
  /// detector histories, no scripted crashes) — see validate() — so
  /// that every infinite unrolling of a graph cycle is a run of the
  /// modelled system under a *legal* detector-history limit.
  std::string liveness;
};

/// One built instance: a simulator plus the properties to check on it.
struct Scenario {
  std::unique_ptr<sim::Simulator> sim;
  std::vector<std::unique_ptr<Invariant>> invariants;
  std::vector<std::unique_ptr<EventualProperty>> eventuals;
  /// Non-empty iff ScenarioOptions::liveness named a clause; holds
  /// exactly that clause, wired to this instance's modules.
  std::vector<std::unique_ptr<LivenessClause>> liveness;
};

/// The state digest liveness checking keys graph nodes on: the
/// simulator's complete encoded state plus every invariant's carried
/// history, with no symmetry canonicalization (liveness forbids
/// --symmetry: per-process fairness bookkeeping does not survive
/// renaming). nullopt when any component is opaque.
[[nodiscard]] std::optional<std::uint64_t> scenario_fingerprint(
    const Scenario& sc);

/// Builds a fresh instance whose nondeterminism is drawn from the given
/// source. Copyable and cheap; the explorer re-invokes it per run.
using ScenarioBuilder = std::function<Scenario(sim::ChoiceSource&)>;

/// The detector a problem's construction queries, as components of the
/// product detector ChoiceOracle drives — the paper's table: Sigma for
/// registers, (Omega, Sigma) for consensus, Psi for QC, (Psi, FS) for
/// NBAC. The factory derives every component-dependent rule from it.
struct Detectors {
  bool omega = false;
  bool sigma = false;
  bool psi = false;
  bool fs = false;

  /// Any oracle component at all.
  [[nodiscard]] constexpr bool any() const {
    return omega || sigma || psi || fs;
  }
  /// The explorer ranges over the majority Sigma menu only (Psi's
  /// (Omega, Sigma) branch included; fd/choice_oracle.h), so the failure
  /// pattern — scripted or reconstructed by injection — must keep a
  /// majority correct.
  [[nodiscard]] constexpr bool needs_majority() const { return sigma || psi; }
  /// FS and Psi are the only components whose outputs read the evolving
  /// failure pattern (failure_by(t)) mid-run: an injected crash is then
  /// observable by every process through its next query, and the
  /// explorer must keep crash labels dependent with everything. Omega
  /// and Sigma menus — static or per-query —
  /// never re-read the pattern before stabilization.
  [[nodiscard]] constexpr bool pattern_sensitive() const { return psi || fs; }
};

/// Per-build wiring state, private to the factory (scenario.cpp).
struct ScenarioWiring;

/// One row of the problem table: everything the factory knows about a
/// problem. Every mode (--exhaustive, --campaign, --replay) runs every
/// problem.
struct ProblemSpec {
  std::string_view name;
  Detectors fd;
  /// Liveness clause names available for the problem (unused slots
  /// empty). "termination" covers consensus/QC/NBAC decisions and rb
  /// delivery completion uniformly; "leadership" is the Omega
  /// eventual-leadership goal on the (Omega, Sigma) consensus
  /// protocols; "fd-completeness" checks the implemented heartbeat
  /// Omega's strong completeness.
  std::array<std::string_view, 2> liveness;
  /// Candidate interchangeable-process classes (see symmetry_classes),
  /// or nullptr when the problem is not verified symmetric.
  std::vector<std::vector<ProcessId>> (*symmetry)(const ScenarioOptions&);
  /// Whether the problem carries safety invariants. Without them an
  /// exhaustive search can find nothing but liveness lassos, so the
  /// campaign skips its frontier search.
  bool has_invariants;
  /// Adds the processes, modules, invariants and eventual properties.
  void (*wire)(const ScenarioOptions&, ScenarioWiring&);
};

class ScenarioFactory {
 public:
  explicit ScenarioFactory(ScenarioOptions opt);

  [[nodiscard]] const ScenarioOptions& options() const { return opt_; }

  /// The problem table: every problem build() understands.
  [[nodiscard]] static std::span<const ProblemSpec> problems();
  /// The row named `problem`, or nullptr when there is none.
  [[nodiscard]] static const ProblemSpec* find(std::string_view problem);

  /// Empty string when the options are valid, else a diagnosis.
  [[nodiscard]] static std::string validate(const ScenarioOptions& opt);

  /// Detectors::pattern_sensitive of the problem's row (false for an
  /// unknown problem).
  [[nodiscard]] static bool pattern_sensitive(const ScenarioOptions& opt);

  /// Interchangeable-process classes for symmetry reduction: renaming
  /// processes within a class maps runs to runs (identical modules,
  /// identical initial values, symmetric detector menus and fault
  /// budgets). Empty when the scenario is not verified symmetric —
  /// scripted crashes pin concrete processes, a finite stabilization
  /// time makes the oracle's limit values renaming-sensitive, and some
  /// problems (distinct broadcast values, pid-ordered leader election)
  /// have no interchangeable processes at all. Singleton classes are
  /// omitted; a non-empty result always licenses a nontrivial renaming.
  [[nodiscard]] static std::vector<std::vector<ProcessId>> symmetry_classes(
      const ScenarioOptions& opt);

  [[nodiscard]] Scenario build(sim::ChoiceSource& choices) const;

  /// The build() entry point as a value (captures this validated
  /// factory by copy).
  [[nodiscard]] ScenarioBuilder builder() const;

 private:
  [[nodiscard]] sim::FailurePattern make_pattern(
      sim::ChoiceSource& choices) const;

  ScenarioOptions opt_;
  const ProblemSpec* spec_;
};

}  // namespace wfd::explore
