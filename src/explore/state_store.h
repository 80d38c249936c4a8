// Persistent snapshots of an interrupted search — the lever that turns
// every budget-capped wfd_check verdict into an incrementally
// completable one, and the work-unit encoding of the wave-scheduled
// explorer (a unit's serialized form IS its frame stack plus floor).
//
// A snapshot is a versioned, line-oriented key=value text file (the
// ReplayFile conventions: unknown keys ignored, '#' comments) carrying
// everything the wave search needs to continue exactly where it
// stopped:
//
//  * the search header (explore/search_config.h): the scenario options
//    plus the reduction levers the stored frontier is only sound under
//    (reduction, symmetry, fingerprint pruning, order seed). Validated
//    on load so a snapshot can never be resumed against a different
//    scenario or reduction configuration.
//    Execution-shape knobs (threads, budgets) are deliberately absent:
//    resuming with a different thread count or budget is legal and
//    changes nothing about what is explored.
//  * the unit queue: every pending unit's id, floor, path-pending flag
//    and frame stack — each frame with its full menu, the decision
//    taken (the frames' `chosen` entries ARE the decision-log prefix of
//    every pending alternative) and its sleep / explored / backtrack
//    sets. The per-node hash-chain keys are recomputed on load, never
//    stored.
//  * the node registry: for every choice point whose frontier was split
//    across units, its chain key and the ordered list of labels already
//    assigned to some unit — what keeps deferred DPOR insertions from
//    re-spawning work a previous invocation already scheduled.
//  * the visited-fingerprint set (fingerprint -> earliest sim time), so
//    a resumed search prunes against everything previous invocations
//    saw — which is also why a resumed search that ends clean reports
//    coverage `modulo-fingerprints` at best, never `complete`: its own
//    fp_prunes count carries over;
//  * the wave index and next unit id (the per-wave budget schedule and
//    unit numbering continue deterministically), the cumulative
//    ExploreStats and the conservative-payload audit backlog.
//
// Snapshots are only written at wave barriers (a cancelled wave is
// discarded wholesale), so restoring one and continuing visits the
// same states as one uninterrupted run (see DESIGN.md §12 for the
// equivalence argument). save uses temp-file + rename, so a run killed
// mid-write never leaves a torn snapshot behind; a truncated or
// tampered file fails to parse (count trailers + end marker,
// overflow-checked numerics).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "explore/explorer.h"
#include "explore/liveness.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "sim/choice.h"

namespace wfd::explore {

/// One DFS choice point of a stored unit (the wire twin of the
/// explorer's internal Frame).
struct FrameState {
  sim::ChoiceKind kind = sim::ChoiceKind::kSchedule;
  std::uint32_t chosen = 0;
  std::uint32_t start = 0;
  bool blocked = false;
  std::vector<std::uint64_t> labels;
  std::vector<std::uint64_t> sleep;
  std::vector<std::uint64_t> explored;
  std::vector<std::uint64_t> backtrack;
};

/// One pending work unit: frames[0, floor) are the fixed prefix the
/// unit never backtracks past; the rest is its private DFS frontier.
struct UnitState {
  std::uint64_t id = 0;
  std::uint64_t floor = 0;
  /// True when the unit's current path has not been executed to
  /// completion yet (a freshly spawned unit): resume re-executes it
  /// instead of backtracking past it.
  bool path_pending = true;
  std::vector<FrameState> frames;
};

/// One registry entry: a split choice point's chain key and the labels
/// already assigned to units, in assignment order (the order defines
/// the sleep-set asymmetry between sibling units).
struct NodeState {
  std::array<std::uint64_t, 2> key{};
  std::vector<std::uint64_t> assigned;
};

struct StateSnapshot {
  /// Format version; parse rejects anything else. Bump on any change to
  /// the frame encoding or the fingerprint semantics — nothing below is
  /// sound to reuse across explorer algorithm changes.
  ///
  /// History: v1 was the original format. v2 (fault injection) added the
  /// crash_mode / loss_drops / loss_dups / fd_adversarial scenario
  /// header fields, let frame labels carry fault action bits 46-47
  /// (sim/scheduler.h), and added the injected_* stats counters. v3
  /// (wave-scheduled search) replaced the single DFS path with the unit
  /// queue + node registry, added the fault_dependence / symmetry
  /// header levers and the wave / next_unit_id counters, and changed
  /// the state-encoding of process identities (renaming-aware digests)
  /// — v2 frontiers and fingerprints are not sound against any of
  /// these. v4 (liveness / fair-cycle search) added the liveness
  /// scenario header field, the state graph (groot= / gnode= / gedge=
  /// lines) and the liveness stats counters; a v3 frontier lacks the
  /// graph edges its fingerprint prunes relied on, so it cannot seed a
  /// liveness run. v5 (channel-granular fairness) widened gnode dl=
  /// bits from per-receiver to per-directed-channel (bit sender*8 +
  /// receiver) and added the s= sender field to gedge= lines; v4's
  /// receiver-granular bits and sender-less edges are unsound to reuse,
  /// so v4 graphs are refused like any other version mismatch. v6
  /// dropped the dependence / fault_dependence header levers (content
  /// and fault-aware dependence are the only relation): a v5 header may
  /// name dependence=process or fault_dependence=0, whose frontier and
  /// sleep sets are unsound to continue under the sparser relation. v7
  /// dropped the fd_adversarial header field (per-query histories under
  /// crash_mode=explore are the same tree) and let Psi's (Omega, Sigma)
  /// branch fill the omega/sigma components, which changes the
  /// fingerprints of every Psi scenario. v8 added the fingerprints and
  /// replayed_steps stats counters; a v7 file lacks them, so a search
  /// resumed from it would report counts that no single-shot search
  /// produces.
  static constexpr std::uint32_t kVersion = 8;
  std::uint32_t version = kVersion;

  /// Only the search-header fields (scenario + reduction levers) are
  /// meaningful; everything else keeps its default.
  SearchConfig config;

  /// How many save/resume invocations produced this snapshot (1 = saved
  /// by a fresh search).
  std::uint64_t resume_generation = 1;
  /// Wave index the per-unit budget schedule continues from.
  std::uint64_t wave = 0;
  /// Next unit id to allocate (ids are never reused).
  std::uint64_t next_unit_id = 0;

  ExploreStats stats;
  std::set<std::string> conservative_payloads;
  /// Sorted by id (the queue order).
  std::vector<UnitState> units;
  /// Sorted by key (the registry's map order).
  std::vector<NodeState> nodes;
  /// fingerprint -> earliest sim time seen (sorted by fingerprint, so
  /// equal stores produce byte-identical files).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fingerprints;
  /// Liveness mode only: the state graph recorded so far, in committed
  /// insertion order (stored and restored verbatim — the fair-cycle
  /// search is deterministic in that order). Empty otherwise.
  LiveGraph graph;
};

/// Renders / parses the text format. parse returns nullopt (with a
/// diagnosis in *error when given) on malformed, truncated or
/// wrong-version input; `wrong_version`, when given, distinguishes a
/// well-formed snapshot of another format version (an incompatibility,
/// reported as resume_rejected) from a corrupt file (an I/O-level
/// failure).
std::string to_text(const StateSnapshot& s);
std::optional<StateSnapshot> parse_snapshot(const std::string& text,
                                            std::string* error = nullptr,
                                            bool* wrong_version = nullptr);

/// File wrappers. save writes to `path + ".tmp"` and renames into place,
/// so an interrupted save leaves the previous snapshot intact.
bool save_snapshot(const std::string& path, const StateSnapshot& s,
                   std::string* error = nullptr);
std::optional<StateSnapshot> load_snapshot(const std::string& path,
                                           std::string* error = nullptr,
                                           bool* wrong_version = nullptr);

/// Empty string when `snap` is sound to resume under the given search
/// configuration; otherwise a diagnosis naming the first mismatched
/// field. The comparison diffs the rendered search headers line by
/// line, so every scenario field and every reduction lever participates
/// automatically — and only those (threads and budgets may differ
/// freely between invocations).
std::string resume_mismatch(const StateSnapshot& snap,
                            const SearchConfig& cfg);

}  // namespace wfd::explore
