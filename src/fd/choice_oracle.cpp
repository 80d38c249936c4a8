#include "fd/choice_oracle.h"

#include "common/check.h"

namespace wfd::fd {

namespace {

/// Labels for the binary green/red FS choice.
const std::vector<std::uint64_t> kFsLabels = {0, 1};

}  // namespace

ChoiceOracle::ChoiceOracle(Options opt) : ChoiceOracle(nullptr, opt) {}

ChoiceOracle::ChoiceOracle(sim::ChoiceSource* choices, Options opt)
    : choices_(choices), opt_(opt) {}

std::size_t ChoiceOracle::pick(const std::vector<std::uint64_t>& labels) {
  WFD_CHECK(!labels.empty());
  if (labels.size() == 1) return 0;  // Forced moves stay out of the log.
  sim::ChoiceSource& src = choices_ != nullptr ? *choices_ : *seeded_;
  return src.choose(sim::ChoiceKind::kFd, labels);
}

ProcessId ChoiceOracle::pick_member(const ProcessSet& s) {
  labels_.clear();
  // Members in increasing id order, as ProcessSet::members() lists them.
  for (std::uint64_t b = s.raw(); b != 0; b &= b - 1) {
    labels_.push_back(static_cast<std::uint64_t>(__builtin_ctzll(b)));
  }
  return static_cast<ProcessId>(labels_[pick(labels_)]);
}

ProcessSet ChoiceOracle::pick_quorum(const ProcessSet& pool) {
  labels_.clear();
  if (core_ == kNoProcess) {
    for (const ProcessSet& q : majorities_) {
      if (q.is_subset_of(pool)) labels_.push_back(q.raw());
    }
  } else {
    labels_.push_back(ProcessSet{core_}.raw());
    if (pool != ProcessSet{core_}) labels_.push_back(pool.raw());
  }
  return ProcessSet::from_raw(labels_[pick(labels_)]);
}

void ChoiceOracle::begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                             Time horizon) {
  (void)horizon;
  if (choices_ == nullptr) seeded_.emplace(seed);
  f_ = f;
  n_ = f.n();
  WFD_CHECK(n_ >= 1 && n_ <= kMaxProcesses);
  const ProcessSet correct = f.correct();
  WFD_CHECK_MSG(!correct.empty(), "no correct process in pattern");

  majorities_.clear();
  core_ = kNoProcess;
  const int m = n_ / 2 + 1;
  if (opt_.sigma || opt_.psi) {
    WFD_CHECK_MSG(n_ <= kMaxSigmaProcesses,
                  "the Sigma menus support n <= kMaxSigmaProcesses");
    if (correct.size() >= m) {
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n_); ++mask) {
        if (__builtin_popcountll(mask) == m) {
          majorities_.push_back(ProcessSet::from_raw(mask));
        }
      }
      ProcessSet star;
      for (ProcessId p : correct.members()) {
        if (star.size() == m) break;
        star.insert(p);
      }
      sigma_star_ = star;
    } else {
      core_ = pick_member(correct);
    }
  }
  omega_star_ = correct.min();

  if (!opt_.per_query) {
    // Static histories must be converged from the start: the leader must
    // be correct and the quorum drawn from correct processes.
    if (opt_.omega || opt_.psi) static_omega_ = pick_member(correct);
    if (opt_.sigma || opt_.psi) static_sigma_ = pick_quorum(correct);
  }

  fs_red_.assign(static_cast<std::size_t>(n_), false);
  psi_fs_red_.assign(static_cast<std::size_t>(n_), false);
  psi_switched_.assign(static_cast<std::size_t>(n_), false);
  psi_branch_ = opt_.psi_branch;
  WFD_CHECK_MSG(!opt_.psi || psi_branch_ != PsiBranch::kFs ||
                    !f.faulty().empty(),
                "the FS branch of Psi requires a failure in the pattern");
  if (opt_.psi && opt_.psi_converged) {
    // Converged-from-the-start Psi: adopt the always-legal
    // (Omega, Sigma) branch immediately (the FS branch presumes a
    // failure, which a converged limit cannot).
    WFD_CHECK(psi_branch_ != PsiBranch::kFs);
    psi_branch_ = PsiBranch::kOmegaSigma;
    psi_switched_.assign(static_cast<std::size_t>(n_), true);
  }
}

void ChoiceOracle::on_crash(ProcessId p, Time t) {
  if (!opt_.live_pattern) return;
  f_.crash_at(p, t);
  // Recompute the converged values from the surviving correct set; the
  // per-query menus consult f_ directly (FS red / Ψ's FS branch become
  // offerable from this step on).
  const ProcessSet correct = f_.correct();
  WFD_CHECK_MSG(!correct.empty(), "injected crash left no correct process");
  omega_star_ = correct.min();
  if (opt_.sigma || opt_.psi) {
    const int m = n_ / 2 + 1;
    WFD_CHECK_MSG(core_ == kNoProcess ? correct.size() >= m
                                      : correct.contains(core_),
                  "injected crash broke the Sigma menu's environment");
    ProcessSet star;
    for (ProcessId q : correct.members()) {
      if (star.size() == m) break;
      star.insert(q);
    }
    sigma_star_ = star;
  }
  if (!opt_.per_query) {
    // Static histories anticipate explored crash points: the values
    // picked at begin_run were converged for the pre-crash correct set;
    // when the crash invalidates one, re-pick from the survivors (a
    // recorded kFd choice, so every alternative is explored and the
    // decision is part of the crash step's edge). Crash edges never lie
    // on a cycle (fault budgets decrease monotonically and are
    // fingerprinted), so along any infinite unrolling the statics are
    // the converged legal limit history of the final crash set — which
    // makes --liveness sound when composed with --crash=explore.
    if ((opt_.omega || opt_.psi) && !correct.contains(static_omega_)) {
      static_omega_ = pick_member(correct);
    }
    if ((opt_.sigma || opt_.psi) && !static_sigma_.is_subset_of(correct)) {
      static_sigma_ = pick_quorum(correct);
    }
  }
}

ProcessId ChoiceOracle::omega_value(Time t) {
  if (!opt_.per_query) return static_omega_;
  if (t >= opt_.stabilization) return omega_star_;
  // Before stabilization Omega may point at any process, crashed ones
  // included.
  return pick_member(ProcessSet::full(n_));
}

ProcessSet ChoiceOracle::sigma_value(Time t) {
  if (!opt_.per_query) return static_sigma_;
  if (t < opt_.stabilization) return pick_quorum(ProcessSet::full(n_));
  if (core_ == kNoProcess) return sigma_star_;
  return pick_quorum(f_.correct());
}

FsColor ChoiceOracle::fs_value(std::vector<bool>& red_latch, ProcessId p,
                               Time t) {
  if (!f_.failure_by(t)) return FsColor::kGreen;
  auto latched = red_latch[static_cast<std::size_t>(p)];
  if (latched) return FsColor::kRed;
  if (t < opt_.stabilization && pick(kFsLabels) == 0) {
    return FsColor::kGreen;
  }
  red_latch[static_cast<std::size_t>(p)] = true;
  return FsColor::kRed;
}

PsiValue ChoiceOracle::psi_value(ProcessId p, Time t) {
  if (!psi_switched_[static_cast<std::size_t>(p)]) {
    // The FS branch may start only at or after the first failure.
    const bool fs_open =
        psi_branch_ != PsiBranch::kOmegaSigma && f_.failure_by(t);
    if (t >= opt_.stabilization) {
      // Forced convergence: adopt the global branch, defaulting to the
      // always-legal (Omega, Sigma) behaviour.
      if (psi_branch_ == PsiBranch::kChosen) {
        psi_branch_ = PsiBranch::kOmegaSigma;
      }
      if (psi_branch_ == PsiBranch::kFs && !fs_open) return PsiValue::bottom();
      psi_switched_[static_cast<std::size_t>(p)] = true;
    } else {
      // 0 = stay bottom, 1 = (Omega, Sigma), 2 = FS. The first switcher
      // fixes the branch for everyone (the paper's Psi switches modes
      // system-wide).
      std::vector<std::uint64_t> labels = {0};
      if (psi_branch_ != PsiBranch::kFs) labels.push_back(1);
      if (fs_open) labels.push_back(2);
      const std::uint64_t sel = labels[pick(labels)];
      if (sel == 0) return PsiValue::bottom();
      psi_branch_ = (sel == 1) ? PsiBranch::kOmegaSigma : PsiBranch::kFs;
      psi_switched_[static_cast<std::size_t>(p)] = true;
    }
  }
  if (psi_branch_ == PsiBranch::kOmegaSigma) {
    return PsiValue::omega_sigma(omega_value(t), sigma_value(t));
  }
  return PsiValue::failure_signal(fs_value(psi_fs_red_, p, t));
}

void ChoiceOracle::encode_state(sim::StateEncoder& enc, Time now) const {
  // All latches that steer future query answers; the stabilization
  // boundary is folded as a remaining delta so runs that reach the same
  // latch state at different absolute times hash equally only when the
  // same amount of pre-stabilization freedom remains.
  if (opt_.stabilization != kNever && opt_.stabilization > now) {
    enc.field("stabilize-in", opt_.stabilization - now);
  } else {
    enc.field("stabilized", opt_.stabilization != kNever);
  }
  if (core_ != kNoProcess) enc.pid_field("sigma-core", core_);
  enc.pid_field("static-omega", static_omega_);
  enc.field("static-sigma", static_sigma_);
  for (std::size_t p = 0; p < fs_red_.size(); ++p) {
    enc.push_proc("proc", static_cast<ProcessId>(p));
    enc.field("fs-red", static_cast<bool>(fs_red_[p]));
    enc.field("psi-fs-red", static_cast<bool>(psi_fs_red_[p]));
    enc.field("psi-switched", static_cast<bool>(psi_switched_[p]));
    enc.pop();
  }
  enc.field("psi-branch", psi_branch_);
}

FdValue ChoiceOracle::query(ProcessId p, Time t) {
  FdValue v;
  if (opt_.omega) v.omega = omega_value(t);
  if (opt_.sigma) v.sigma = sigma_value(t);
  if (opt_.fs) v.fs = fs_value(fs_red_, p, t);
  if (opt_.psi) {
    v.psi = psi_value(p, t);
    if (v.psi->mode == PsiValue::Mode::kOmegaSigma) {
      v.omega = v.psi->omega;
      v.sigma = v.psi->sigma;
    }
  }
  return v;
}

}  // namespace wfd::fd
