// Shared result types of the exploration subsystem.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "sim/choice.h"

namespace wfd::explore {

/// A property violation observed in a run.
struct Violation {
  std::string property;  ///< Name of the violated property.
  std::string message;   ///< Human-readable diagnosis.
  Time at = 0;           ///< Step at which the violation became true.
};

/// A violation together with the decision sequence that produces it.
/// Replaying the decisions through the same scenario reproduces the
/// violation deterministically (see replay_io.h).
struct Counterexample {
  sim::DecisionLog decisions;
  Violation violation;
  std::uint64_t steps = 0;  ///< Simulator steps until the violation.
  /// Liveness lassos only (fair-cycle search, explore/liveness.h):
  /// `decisions` is then the stem from the initial state to the cycle
  /// entry and `loop` the decision block whose endless repetition is
  /// the violating fair run — replaying stem + loop returns to the
  /// cycle-entry state fingerprint. Empty for safety counterexamples.
  sim::DecisionLog loop{};
  std::uint64_t loop_steps = 0;  ///< Simulator steps one unrolling takes.
};

}  // namespace wfd::explore
