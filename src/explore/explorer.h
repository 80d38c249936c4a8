// Bounded exploration of the choice tree of a scenario — the wave-
// scheduled, work-stealing successor of the original single-threaded
// DFS.
//
// The search state is a queue of *units*. A unit owns one edge of the
// choice tree: a fixed path prefix (its frames below `floor` never
// change) plus the DFS frontier it has grown below that prefix. Units
// execute independently — each one is the classic stateless-model-
// checking loop (re-execute the scenario along the recorded path,
// extend to a halt, backtrack the deepest frame with an unvisited
// alternative) with the backtrack walk stopping at the unit's floor.
//
// Units run in *waves*: up to a fixed number of queued units execute
// concurrently on SearchConfig::threads workers, each against the
// fingerprint set committed at the wave start plus a private overlay.
// A barrier then merges the results in canonical unit order: stats and
// fingerprint overlays fold in, units that exhausted their subtree are
// dropped, and units stopped by the per-wave node budget are
// *decomposed* — every frame of their final path donates its
// unvisited-but-owed labels as freshly spawned units (work stealing by
// splitting the frontier, not by locking a shared stack). A registry
// keyed by a per-node path-hash chain records, for every node whose
// frontier has been split, the ordered set of labels already assigned
// to some unit; DPOR race insertions that target a frame below the
// inserting unit's floor are deferred to the barrier and resolved
// against that registry, so the same reordering is never explored
// twice and sleep-set asymmetry (later-assigned labels sleep
// earlier-assigned independent ones, never the reverse) is preserved
// across units.
//
// Every decision that shapes the search — wave composition, per-wave
// budgets, decomposition order, deferred-insertion order — is a pure
// function of the committed search state, never of thread timing.
// Results (states, coverage, violations, snapshots) are therefore
// identical for every SearchConfig::threads value; threads only buy
// wall clock. Cooperative cancellation discards the entire in-flight
// wave, so a snapshot saved afterwards is exactly the last barrier
// state and a resumed run re-executes the discarded wave verbatim.
//
// Reductions (SearchConfig::reduction) are unchanged in spirit from
// the serial explorer: kDpor layers dynamic partial-order reduction
// and sleep sets over the schedule choices, kSleepSets keeps only the
// static sleep-set approximation, kNone enumerates everything. The
// dependence relation the reductions consume is fixed
// (sim/dependence.h): under kDpor, deliveries to one process whose
// payloads commute are independent, and crash/drop/duplicate labels
// use a sparse relation — a fault commutes with steps of processes it
// does not touch — instead of being dependent with everything. Frames
// whose menu offers a fault are still fully expanded (soundness over
// reduction); the fault relation lets fault labels participate in
// sleep sets and lets sleep sets survive fault edges, which is where
// the crash-exploration blowup lived. One lever refines the search:
//  * symmetry (opt-in): state fingerprints are canonicalized under
//    process renaming within ScenarioFactory::symmetry_classes — the
//    stored fingerprint is the minimum digest over the scenario's
//    symmetry group, so runs that differ only by a renaming of
//    interchangeable processes merge.
//
// Coverage is reported honestly (coverage()): complete, complete
// modulo fingerprint equivalence, or budget-capped. A capped search
// persists its unit queue, node registry and fingerprint set
// (SearchConfig::save_path, state_store.h) and resumes across
// invocations; k budgeted invocations visit exactly the states one
// uninterrupted run would.
//
// Liveness mode (SearchConfig::scenario.liveness non-empty) grows the
// fingerprint store into an explicit state graph while exploring —
// per-step fingerprints, goal bits, enabled sets, per-channel
// deliverability bits, decision-labelled edges (explore/liveness.h) —
// and, once the tree is exhausted, runs a fair-cycle search over it: a
// cycle avoiding the clause's goal that is fair to every enabled
// process and every pending directed channel is a liveness violation,
// reported as a replayable stem+loop lasso. A
// fingerprint revisit prunes regardless of time in this mode (the
// liveness validate() rules make states time-free, so a prune is an
// exact merge into an already-expanded graph node) and exhaustion
// therefore reports kComplete coverage even with fp_prunes > 0.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "explore/scenario.h"
#include "explore/search_config.h"
#include "explore/types.h"

namespace wfd::explore {

struct ExploreStats {
  std::uint64_t nodes = 0;        ///< Choice points materialized.
  std::uint64_t runs = 0;         ///< Complete re-executions.
  std::uint64_t steps = 0;        ///< Simulator steps across all runs.
  std::uint64_t sleep_skips = 0;  ///< Options skipped by sleep sets.
  std::uint64_t fp_prunes = 0;    ///< Branches cut by fingerprints.
  std::uint64_t hb_races = 0;     ///< Racing event pairs detected (DPOR).
  std::uint64_t backtrack_points = 0;  ///< Labels added to backtrack sets.
  /// Delivery pairs exempted from race insertion because their payloads
  /// commute (kDpor only).
  std::uint64_t commute_skips = 0;
  /// Adversary moves executed across all completed runs (fault
  /// injection; see src/inject/).
  std::uint64_t injected_crashes = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  /// State fingerprints computed, the root of every run included (a
  /// --symmetry canonicalization counts once).
  std::uint64_t fingerprints = 0;
  /// Steps executed inside the replay prefix (re-executions of the
  /// path the unit already walked).
  std::uint64_t replayed_steps = 0;
  std::uint64_t violations = 0;   ///< Violating runs found.
  bool exhausted = false;         ///< Whole tree visited within budget.
  // Liveness (fair-cycle) mode only — all zero otherwise.
  bool liveness = false;              ///< A state graph was recorded.
  std::uint64_t graph_states = 0;     ///< Distinct state-graph nodes.
  std::uint64_t graph_edges = 0;      ///< Distinct recorded transitions.
  std::uint64_t graph_truncated = 0;  ///< Nodes with horizon-cut futures.
};

/// How completely the choice tree was covered.
enum class Coverage {
  kBudget,              ///< Ran out of max_states / budget_states.
  kComplete,            ///< Every branch visited, no fingerprint cuts.
  kModuloFingerprints,  ///< Every branch visited or cut at a state whose
                        ///< subtree was explored from an equivalent
                        ///< fingerprint ("exhausted modulo fingerprint
                        ///< equivalence").
};

[[nodiscard]] Coverage coverage(const ExploreStats& stats);
[[nodiscard]] std::string coverage_name(Coverage c);

struct ExploreReport {
  ExploreStats stats;
  /// The first counterexample found (unshrunk). Counterexamples are not
  /// persisted across save/resume: each invocation reports at most the
  /// first one it finds itself (stats.violations stays cumulative).
  /// In liveness mode an exhausted search may instead carry a lasso
  /// from the fair-cycle search (cex->loop non-empty).
  std::optional<Counterexample> cex;
  /// Liveness mode, tree exhausted, no safety violation pre-empted it:
  /// the fair-cycle search ran over the completed state graph. Its
  /// verdict is then cex (a lasso) or — when cex is empty — "no fair
  /// cycle", exact up to stats.graph_truncated horizon cuts.
  bool fair_cycle_checked = false;
  /// Non-empty: the fair-cycle search found a witness SCC but could not
  /// concretize its lasso by probing (a graph/scenario mismatch — an
  /// internal error, never a sound "no fair cycle"). Carries the
  /// structured diagnostic from find_fair_lasso; cex stays empty.
  std::string lasso_error;
  /// Identities of payload types observed in flight that still ship the
  /// conservative commutes_with default (empty kind()): the audit
  /// backlog of the content-aware dependence. Sorted for stable output.
  std::set<std::string> conservative_payloads;
  /// True when the search was seeded from SearchConfig::resume_path.
  bool resumed = false;
  /// Save/resume generations behind this search (0 = fresh start).
  std::uint64_t resume_generation = 0;
  /// Non-empty: resuming failed and nothing ran. resume_rejected
  /// distinguishes an incompatible snapshot (different scenario or
  /// search configuration — the caller's exit-2 case) from an
  /// unreadable or corrupt one.
  std::string resume_error;
  bool resume_rejected = false;
  /// Non-empty: the search ran but the final snapshot was not written.
  std::string save_error;
  /// The search was stopped by SearchConfig::cancel.
  bool cancelled = false;
};

class Explorer {
 public:
  /// `cfg` must already be valid (validate(cfg) empty); the scenario in
  /// `cfg.scenario` must describe the same construction `build` runs.
  /// The explorer consults it for soundness decisions, not just
  /// bookkeeping: ScenarioFactory::pattern_sensitive(cfg.scenario)
  /// gates the sparse fault-dependence relation and
  /// ScenarioFactory::symmetry_classes(cfg.scenario) defines the
  /// renaming group for --symmetry, so a mismatched scenario can prune
  /// real interleavings.
  Explorer(ScenarioBuilder build, SearchConfig cfg);

  /// Explore until a violation (when stop_at_first), the budget, or the
  /// whole tree is done. Re-entrant: each call restarts from scratch —
  /// or from SearchConfig::resume_path when set.
  ExploreReport run();

 private:
  ScenarioBuilder build_;
  SearchConfig cfg_;
};

}  // namespace wfd::explore
