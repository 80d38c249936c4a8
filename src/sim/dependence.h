// The payload-level independence relation the DPOR explorer consumes,
// plus the dependence relation for injected-fault labels.
//
// Two deliveries to the same process are independent (their order cannot
// be observed by any continuation) when their payloads commute under the
// contract of Payload::kind()/commutes_with(). The query is symmetric —
// both directions must agree — and fails closed: a payload whose type
// was never audited (empty kind()) is dependent on everything, and its
// identity is recorded so tooling can report the coverage gap.
//
// Fault labels (crash / drop / duplicate, sim/scheduler.h action bits)
// used to be treated as dependent with every other transition, which
// made crash-explore trees an order of magnitude bigger than their
// fault-free twins. The real relation is much sparser (DESIGN.md §12):
//
//  * Every schedule label has one *affected process* — the process whose
//    local state or message queue the step touches: the stepping process
//    for start/lambda/delivery, the crash target for a crash, the
//    delivery target for a drop or duplicate (the in-flight message it
//    consumes or copies lives in that process's queue).
//  * A fault label and a normal step are dependent iff they affect the
//    same process. A crash of p commutes with any step of q != p: the
//    crash does not remove in-flight messages, runs no process code, and
//    queries no detector, so the reached state is identical in either
//    order. Same for drop/dup against steps of other processes.
//  * Fault labels are pairwise dependent (conservatively): crash, drop
//    and dup budgets are global counters, so executing one fault can
//    disable another fault label even on an unrelated link.
//  * Exception: when the scenario's detector output depends on the
//    evolving failure pattern (an FS or Psi component reads
//    failure_by(t); see ScenarioFactory::pattern_sensitive), a crash IS
//    observable by every process through its next query, so crash labels
//    stay dependent with everything. Omega/Sigma-only scenarios — static
//    or per-query, under explored crashes too — never re-read the
//    pattern before stabilization, and exploration requires
//    stabilization == never, so they take the sparse relation.
//
// FD flap labels are not part of this relation: detector choices are
// value choices at a fixed query point (kFd frames), not reorderable
// events — enumerating their menu plus fingerprint merging already
// covers them.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "common/types.h"
#include "sim/payload.h"

namespace wfd::sim {

/// True when `a` and `b` commute per their declared contracts. Both
/// payloads must be classified (nonempty kind()) and each must accept
/// the other. When `conservative` is nonnull, the identity of every
/// unclassified payload encountered is inserted into it.
[[nodiscard]] bool payloads_commute(const Payload& a, const Payload& b,
                                    std::set<std::string>* conservative =
                                        nullptr);

/// The process whose state a schedule label touches: the stepping
/// process for start/lambda/delivery and for crash labels, the delivery
/// target for drop/dup labels (the label already encodes it).
[[nodiscard]] ProcessId label_affected_process(std::uint64_t label);

/// True when fault label `fault` must be ordered against an executed
/// step whose affected process is `step_process`. `pattern_sensitive`
/// is the scenario-level flag: when the detector reads the evolving
/// failure pattern, crashes are dependent with everything.
[[nodiscard]] bool fault_step_dependent(std::uint64_t fault,
                                        ProcessId step_process,
                                        bool pattern_sensitive);

/// True when two labels, at least one of them a fault, must be ordered
/// against each other. Fault pairs are always dependent (shared global
/// budgets); a fault against a normal label reduces to
/// fault_step_dependent on the normal label's affected process.
[[nodiscard]] bool fault_labels_dependent(std::uint64_t a, std::uint64_t b,
                                          bool pattern_sensitive);

}  // namespace wfd::sim
