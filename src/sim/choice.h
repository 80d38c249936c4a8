// Choice points: every source of nondeterminism a run can expose —
// which process steps, which pending message it receives, which value a
// failure-detector oracle emits from its allowed set, where crashes land
// — is funnelled through one ChoiceSource. A run driven by choice-aware
// components (ReplayScheduler, fd::ChoiceOracle, the explore
// scenario builders) is then a pure function of its decision sequence:
// record the indices and the run replays bit-for-bit; enumerate them and
// the run tree is explored exhaustively (src/explore/).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace wfd::sim {

/// What a choice point is about. Recorded only for diagnostics; replay
/// consumes decisions positionally.
enum class ChoiceKind : std::uint8_t {
  kSchedule = 0,     ///< Which process steps / which message it receives.
  kFd = 1,           ///< Which value an oracle emits from its allowed set.
  kEnvironment = 2,  ///< Environment shape (e.g. crash times).
};

/// One recorded decision sequence. Indices are positional: the i-th
/// entry answers the i-th choose() call of the run.
using DecisionLog = std::vector<std::uint32_t>;

/// The decision maker behind every choice point of a run.
///
/// Contract for callers: call choose() only when there are at least two
/// options (single-option points must be resolved locally, so decision
/// logs contain no forced moves), and enumerate options in a
/// deterministic order. `labels` carries one stable identifier per
/// option (see ReplayScheduler::label); pure replay sources ignore them,
/// the DFS explorer uses them for sleep-set reduction.
class ChoiceSource {
 public:
  virtual ~ChoiceSource() = default;

  /// Pick an option index in [0, labels.size()).
  virtual std::size_t choose(ChoiceKind kind,
                             const std::vector<std::uint64_t>& labels) = 0;

  /// Observe the *enabled set* of the upcoming decision — every option
  /// the caller could legally pick, including forced single-option
  /// menus that never reach choose(). Choice-aware components call this
  /// once per decision point, before resolving it; the default ignores
  /// it. The fairness bookkeeping of liveness checking lives on this
  /// hook: a lasso is fair only if no process stays enabled (appears
  /// here) forever while never being scheduled, and forced moves are
  /// exactly the ones a decision log cannot reveal.
  virtual void note_enabled(ChoiceKind kind,
                            const std::vector<std::uint64_t>& labels) {
    (void)kind;
    (void)labels;
  }
};

/// Replays a fixed decision sequence. Entries are reduced modulo the
/// option count (so shrinking passes can splice logs without going out
/// of range) and an exhausted log keeps answering 0 — the canonical
/// "greedy default" completion every explorer run bottoms out on.
class FixedChoices : public ChoiceSource {
 public:
  FixedChoices() = default;
  explicit FixedChoices(DecisionLog log) : log_(std::move(log)) {}

  std::size_t choose(ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override;

  /// Decisions consumed so far (including defaulted ones past the end).
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

 private:
  DecisionLog log_;
  std::size_t pos_ = 0;
  std::uint64_t consumed_ = 0;
};

/// FixedChoices that also captures, per simulator step, the schedule
/// menu (via the note_enabled hook, which fires even for forced
/// single-option menus that never reach choose()) and the schedule
/// label the step executed. The liveness machinery replays with this to
/// audit a step against a recorded state-graph edge (which process ran,
/// was it a delivery / an adversary move) — a landed fingerprint alone
/// cannot tell two self-loop edges apart.
class MenuChoices final : public FixedChoices {
 public:
  using FixedChoices::FixedChoices;

  std::size_t choose(ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    const std::size_t idx = FixedChoices::choose(kind, labels);
    if (kind == ChoiceKind::kSchedule) {
      chosen_ = labels[idx];
      have_chosen_ = true;
    }
    return idx;
  }

  void note_enabled(ChoiceKind kind,
                    const std::vector<std::uint64_t>& labels) override {
    if (kind != ChoiceKind::kSchedule) return;
    menu_ = labels;
    have_chosen_ = false;
  }

  /// The schedule menu of the most recent step.
  [[nodiscard]] const std::vector<std::uint64_t>& menu() const {
    return menu_;
  }

  /// The schedule label the most recent step executed. A forced menu
  /// never reaches choose(), so it falls back to the menu's only entry;
  /// meaningless before the first step (returns 0 on an empty menu).
  [[nodiscard]] std::uint64_t executed() const {
    if (have_chosen_) return chosen_;
    return menu_.empty() ? 0 : menu_.front();
  }

 private:
  std::vector<std::uint64_t> menu_;
  std::uint64_t chosen_ = 0;
  bool have_chosen_ = false;
};

/// Forwards to an inner source and records every answer, producing the
/// decision log that makes any run — including a random one — replayable.
class RecordingChoices : public ChoiceSource {
 public:
  explicit RecordingChoices(ChoiceSource& inner) : inner_(&inner) {}

  std::size_t choose(ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override;

  [[nodiscard]] const DecisionLog& log() const { return log_; }

 private:
  ChoiceSource* inner_;
  DecisionLog log_;
};

/// Uniformly random decisions from a seeded Rng — the campaign driver's
/// random walk through the same choice tree the DFS explorer enumerates.
class RandomChoices : public ChoiceSource {
 public:
  explicit RandomChoices(std::uint64_t seed) : rng_(seed) {}

  std::size_t choose(ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override;

 private:
  Rng rng_;
};

}  // namespace wfd::sim
