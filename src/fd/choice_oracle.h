// The oracle for Omega, Sigma, Psi and FS: a failure-detector history
// decided by a ChoiceSource.
//
// Each query's allowed set — the values the detector class permits at
// (p, t) given the failure pattern — is an explicit choice point
// (ChoiceKind::kFd), as in the asynchronous-failure-detector view where
// detector outputs are actions of an automaton. The explorer hands in
// its ChoiceSource and enumerates detector behaviour exactly like it
// enumerates schedules; a replayed decision log pins the history.
// Constructed without a source, the oracle is seeded: it owns a
// sim::RandomChoices seeded from begin_run's seed, so a Simulator run
// stays a pure function of SimConfig::seed.
//
// Legality: every finite run produced this way is a prefix of some
// history in D(F). Before `stabilization` the oracle offers the full
// per-query allowed set (Omega may point anywhere, Sigma may output any
// quorum of its menu, FS may stay green after a crash, Psi may linger
// at bottom); from `stabilization` on it forces the converged values,
// so the eventual-accuracy/completeness clauses are met inside the
// horizon. Bounded-depth safety checking may leave stabilization at
// kNever: any explored prefix still extends to a legal infinite history
// by letting convergence happen after the horizon.
//
// The Sigma menu is derived from the pattern at begin_run:
//  - correct(F) is a majority: the minimal majorities, which intersect
//    pairwise by counting (converged value: a majority of correct
//    processes);
//  - otherwise the common-core menu: one core c in correct(F) is picked
//    once, and each quorum is either {c} or the pool — every process
//    before stabilization, correct(F) from it on. Every quorum contains
//    c, so the menu is legal in every environment.
#pragma once

#include <optional>
#include <vector>

#include "common/process_set.h"
#include "fd/oracle.h"
#include "fd/values.h"
#include "sim/choice.h"
#include "sim/failure_pattern.h"

namespace wfd::fd {

class ChoiceOracle : public Oracle {
 public:
  /// The largest n the Sigma menus support: the majority menu
  /// enumerates every n-bit mask at begin_run.
  static constexpr int kMaxSigmaProcesses = 16;

  /// Psi's branch. kChosen leaves it to the first process that
  /// switches away from bottom (the FS branch only once a failure has
  /// occurred); the other two force it.
  enum class PsiBranch { kChosen, kOmegaSigma, kFs };

  struct Options {
    bool omega = false;
    bool sigma = false;
    bool fs = false;
    bool psi = false;
    /// true: every query is a fresh choice from the allowed set ("flap"
    /// mode — maximally adversarial). false: one history shape is chosen
    /// at begin_run and held constant ("static" mode — far smaller
    /// choice tree; leaders/quorums must then be correct from the start).
    bool per_query = true;
    /// First time at which outputs are forced to the converged values.
    /// kNever = never force (bounded safety checking only).
    Time stabilization = kNever;
    /// Force Psi onto its (Omega, Sigma) branch at begin_run: every
    /// process is switched from time 0, so no per-query switch-timing
    /// choices remain and the whole history is a converged limit from
    /// the start. Liveness checking sets this (with per_query false):
    /// a graph cycle that keeps Psi at bottom forever would otherwise
    /// be a *legal-prefix* but illegal-limit history and produce
    /// spurious non-termination lassos for QC/NBAC.
    bool psi_converged = false;
    /// Track injected crashes: on_crash mutates the oracle's copy of the
    /// failure pattern and recomputes the converged values, so
    /// failure-dependent menus (FS red, Ψ's FS branch) see crashes the
    /// explorer injects mid-run. In static mode it also re-picks
    /// static_omega_ / static_sigma_ from the survivors when a crash
    /// invalidates them (a recorded kFd choice), so static histories
    /// anticipate explored crash points and stay converged for the
    /// final correct set — the soundness basis of composing --liveness
    /// with --crash=explore. Requires stabilization == kNever when
    /// crashes can arrive after a forced convergence point.
    bool live_pattern = false;
    /// Forcing kFs requires a failure in the pattern.
    PsiBranch psi_branch = PsiBranch::kChosen;
  };

  /// Seeded mode: choices come from a sim::RandomChoices seeded at
  /// begin_run.
  explicit ChoiceOracle(Options opt);
  /// `choices` is borrowed and must outlive the oracle.
  ChoiceOracle(sim::ChoiceSource* choices, Options opt);

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  /// In Psi's (Omega, Sigma) branch the answer also carries Psi's leader
  /// and quorum as its omega/sigma components, so Figure 2 can hand the
  /// branch to an unmodified (Omega, Sigma) consensus.
  FdValue query(ProcessId p, Time t) override;
  void on_crash(ProcessId p, Time t) override;
  void encode_state(sim::StateEncoder& enc, Time now) const override;

 private:
  [[nodiscard]] std::size_t pick(const std::vector<std::uint64_t>& labels);
  ProcessId pick_member(const ProcessSet& s);
  /// A quorum of the Sigma menu drawn from `pool`.
  ProcessSet pick_quorum(const ProcessSet& pool);
  ProcessId omega_value(Time t);
  ProcessSet sigma_value(Time t);
  FsColor fs_value(std::vector<bool>& red_latch, ProcessId p, Time t);
  PsiValue psi_value(ProcessId p, Time t);

  /// The menu of the pick in progress, reused so a query allocates
  /// nothing once the buffer has grown.
  std::vector<std::uint64_t> labels_;
  /// Null in seeded mode, where `seeded_` answers instead.
  sim::ChoiceSource* choices_;
  std::optional<sim::RandomChoices> seeded_;
  Options opt_;
  int n_ = 0;
  sim::FailurePattern f_{1};

  /// Majority menu: all minimal majorities of {0..n-1}, in increasing
  /// mask order. Empty under the common-core menu.
  std::vector<ProcessSet> majorities_;
  /// Common-core menu: the core; kNoProcess under the majority menu.
  ProcessId core_ = kNoProcess;

  // Converged values (used from `stabilization` on).
  ProcessId omega_star_ = kNoProcess;  ///< Smallest correct process.
  ProcessSet sigma_star_;  ///< Majority menu: a majority of correct ones.

  // Static-mode history, fixed at begin_run; re-picked at an explored
  // crash that invalidates it (live_pattern).
  ProcessId static_omega_ = kNoProcess;
  ProcessSet static_sigma_;

  std::vector<bool> fs_red_;      ///< FS component: red is a latch.
  std::vector<bool> psi_fs_red_;  ///< Psi's FS branch keeps its own latch.

  /// kChosen until the first switch (or a forced branch) fixes it.
  PsiBranch psi_branch_ = PsiBranch::kChosen;
  std::vector<bool> psi_switched_;
};

}  // namespace wfd::fd
