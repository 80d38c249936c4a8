// wfd_check — systematic schedule exploration and property checking.
//
// Drives small instances of the library's protocols through every
// source of nondeterminism (schedules, detector histories, crash times)
// and checks the specification clauses on each run. Three modes:
//
//   wfd_check --problem=consensus --n=3 --exhaustive --depth=40
//       Wave-scheduled exhaustive search over the whole choice tree
//       (DPOR + sleep sets + fingerprints; --threads=N workers with
//       results identical for every N; --max-states budget).
//
//   wfd_check --problem=qc --n=3 --campaign --runs=20000 --threads=8
//       Parallel randomized campaign: recorded random walks plus a
//       shared exhaustive frontier search.
//
//   wfd_check --replay=cex.wfdr
//       Deterministic re-execution of a saved counterexample.
//
// All scenario and search knobs are SearchConfig flags
// (explore/search_config.h) — one parser shared with the campaign
// driver and the snapshot header; this tool adds only mode and output
// flags on top.
//
// A found safety violation is shrunk to a minimal decision sequence,
// printed, optionally saved with --save=FILE, and exits with status 3;
// a clean exploration exits 0; usage or setup errors (an unknown
// problem included) exit 1. Every problem runs in every mode.
//
// --liveness=<clause> switches the exhaustive search from bounded
// safety to liveness: the explorer records the state graph it visits
// and, once the tree is exhausted, searches it for a fair cycle that
// avoids the clause's goal (explore/liveness.h). A found lasso is
// shrunk (stem and loop separately), printed, saved as a replay file
// with a loop= line, and exits 3; --replay on such a file re-validates
// the fair cycle deterministically. A clean exhaust reports the graph
// size and "no fair cycle avoids the goal".
//
// Exhaustive mode defaults to DPOR plus module-state fingerprints and
// reports its coverage honestly: "complete" (every branch visited),
// "modulo-fingerprints" (every branch visited or cut at a state whose
// subtree was explored from an equivalent fingerprint), or "budget".
//
// Budget-capped searches are resumable: --save-state=FILE persists the
// search frontier + visited fingerprints on exit, --resume=FILE
// continues from such a snapshot (a snapshot from a different scenario
// or search configuration is rejected with exit 2), and
// --budget-states=N caps the NEW states of this invocation, exiting 4
// when the budget ran out with frontier left. Scripts keep re-invoking
// `wfd_check ... --budget-states=N --save-state=s.wfds --resume=s.wfds`
// while the exit status is 4, until the verdict is a violation (3) or
// coverage=complete / modulo-fingerprints (0); see tools/resume_check.sh.
// The split search visits exactly the states one uninterrupted run
// would — as does a --threads=N run versus a serial one.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/option_text.h"
#include "explore/replay_io.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "explore/shrink.h"

using namespace wfd;

namespace {

constexpr int kExitClean = 0;
constexpr int kExitUsage = 1;
/// --resume named a snapshot of a different scenario or search
/// configuration.
constexpr int kExitResumeMismatch = 2;
constexpr int kExitViolation = 3;
constexpr int kExitBudget = 4;
/// The fair-cycle search found a witness SCC but could not pin its lasso
/// by replay probing — a graph/scenario mismatch (internal error), never
/// a sound "no fair cycle" verdict.
constexpr int kExitConcretize = 5;

/// The watchdog waits on the steady clock, so a deadline must convert to
/// its duration without overflow, with room left for the current time.
constexpr std::uint64_t kMaxDeadlineMs =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count() /
    2;

struct Args {
  /// Scenario + search knobs: parsed exclusively by apply_cli_flag.
  explore::SearchConfig cfg;
  enum class Mode { kExhaustive, kCampaign, kReplay } mode = Mode::kExhaustive;
  std::string replay_path;
  /// --save: write a found counterexample as a replay file.
  std::string save_path;
  /// 0 = no deadline. Otherwise a watchdog converts a still-running
  /// exhaustive search into a cooperative cancel after this many
  /// milliseconds: partial report, frontier saved (with --save-state),
  /// exit 4 — a hung lane becomes a budget-style verdict, not a timeout.
  std::uint64_t deadline_ms = 0;
  bool json = false;
};

void usage() {
  std::string problems;
  for (const explore::ProblemSpec& p : explore::ScenarioFactory::problems()) {
    if (!problems.empty()) problems += "|";
    problems += p.name;
  }
  std::printf(
      "usage: wfd_check [--exhaustive | --campaign | --replay=FILE]\n"
      "                 [--save=FILE] [--deadline-ms=N] [--json]\n"
      "                 [scenario/search flags below]\n"
      "\n"
      "problems: %s\n"
      "\n"
      "scenario + search flags (shared with every exploration driver):\n"
      "%s"
      "\n"
      "--crash=explore makes crash timing a per-step exploration choice\n"
      "(--crashes becomes the injection budget, default 1); --loss gives\n"
      "the adversary per-link drop/duplicate budgets; --fd=flap (the\n"
      "default) makes every detector query a fresh choice among the\n"
      "outputs legal for the failure pattern (with --crash=explore, the\n"
      "evolving one), --fd=static one converged history per run.\n"
      "--deadline-ms converts a long exhaustive run into a cooperative\n"
      "cancel: partial report, frontier saved with --save-state, exit 4.\n"
      "--liveness=<clause> checks <>[]goal instead of bounded safety:\n"
      "after exhausting the tree the explored state graph is searched\n"
      "for a fair goal-avoiding cycle, reported as a replayable (and\n"
      "shrinkable) stem+loop lasso. Schedules deliver the oldest pending\n"
      "message of each channel (per-channel FIFO); --all-pending offers\n"
      "every pending message (non-FIFO links).\n"
      "\n"
      "--threads=N runs the wave-scheduled exhaustive search on N worker\n"
      "threads (results are identical for every N); in campaign mode it\n"
      "is the random-walk worker count. --save-state persists a\n"
      "resumable snapshot of an exhaustive search; --resume continues\n"
      "from one; --budget-states=N caps the NEW states explored this\n"
      "invocation, so scripts can loop save/resume until coverage is\n"
      "complete (--max-states stays the cap on the cumulative total).\n"
      "\n"
      "exit status: 0 no violation, 3 violation found, 1 usage error,\n"
      "             2 resume snapshot from a different scenario or\n"
      "               search configuration,\n"
      "             4 state budget exhausted (frontier saved with\n"
      "               --save-state),\n"
      "             5 fair-cycle witness found but its lasso could not\n"
      "               be concretized (internal error; diagnostic on\n"
      "               stderr)\n",
      problems.c_str(), explore::cli_flags_help().c_str());
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--exhaustive") {
      a.mode = Args::Mode::kExhaustive;
      continue;
    }
    if (arg == "--campaign") {
      a.mode = Args::Mode::kCampaign;
      continue;
    }
    if (auto v = val("replay")) {
      a.mode = Args::Mode::kReplay;
      a.replay_path = *v;
      continue;
    }
    if (auto v = val("save")) {
      // An empty path would silently mean "do not save".
      if (v->empty()) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        return false;
      }
      a.save_path = *v;
      continue;
    }
    if (auto v = val("deadline-ms")) {
      if (!explore::detail::parse_u64(*v, &a.deadline_ms) ||
          a.deadline_ms == 0 || a.deadline_ms > kMaxDeadlineMs) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        return false;
      }
      continue;
    }
    if (arg == "--json") {
      a.json = true;
      continue;
    }
    switch (explore::apply_cli_flag(a.cfg, arg)) {
      case explore::CliResult::kApplied:
        break;
      case explore::CliResult::kBadValue:
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        return false;
      case explore::CliResult::kUnknown:
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return false;
    }
  }
  // Injected crashes are bounded by --crashes; exploring with a zero
  // budget would silently degenerate to the crash-free tree.
  if (a.cfg.scenario.crash_mode == "explore" && a.cfg.scenario.crashes == 0) {
    a.cfg.scenario.crashes = 1;
  }
  return true;
}

std::string decisions_to_text(const sim::DecisionLog& log) {
  std::string out;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(log[i]);
  }
  return out;
}

/// A liveness lasso: shrink (stem + loop), print, optionally save as a
/// replay file with a loop= line. Returns the process exit status.
/// Builds its own scenario with a widened horizon — the lasso may run
/// past the search depth (probing already did), and under the liveness
/// rules the horizon changes no transition.
int report_lasso(const Args& a, explore::Counterexample cex,
                 const char* how) {
  explore::ScenarioOptions wide = a.cfg.scenario;
  wide.max_steps =
      std::max<std::uint64_t>(wide.max_steps,
                              cex.decisions.size() + cex.loop.size() + 8);
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(wide).builder();
  std::uint64_t stem_from = 0;
  std::uint64_t loop_from = 0;
  if (a.cfg.shrink) {
    explore::ShrinkLassoResult s =
        explore::shrink_lasso(build, cex.decisions, cex.loop);
    stem_from = s.original_stem;
    loop_from = s.original_loop;
    cex.decisions = std::move(s.stem);
    cex.loop = std::move(s.loop);
  }
  if (a.json) {
    std::printf(
        "{\"verdict\":\"violation\",\"property\":\"%s\",\"message\":\"%s\","
        "\"mode\":\"%s\",\"decisions\":\"%s\",\"loop\":\"%s\","
        "\"stem_shrunk_from\":%llu,\"loop_shrunk_from\":%llu}\n",
        cex.violation.property.c_str(), cex.violation.message.c_str(), how,
        decisions_to_text(cex.decisions).c_str(),
        decisions_to_text(cex.loop).c_str(),
        static_cast<unsigned long long>(stem_from),
        static_cast<unsigned long long>(loop_from));
  } else {
    std::printf("VIOLATION of %s (%s)\n", cex.violation.property.c_str(),
                how);
    std::printf("  %s\n", cex.violation.message.c_str());
    if (stem_from + loop_from != 0) {
      std::printf("  shrunk: stem %llu -> %llu, loop %llu -> %llu decisions\n",
                  static_cast<unsigned long long>(stem_from),
                  static_cast<unsigned long long>(cex.decisions.size()),
                  static_cast<unsigned long long>(loop_from),
                  static_cast<unsigned long long>(cex.loop.size()));
    }
    std::printf("  stem: [%s]\n", decisions_to_text(cex.decisions).c_str());
    std::printf("  loop: [%s]\n", decisions_to_text(cex.loop).c_str());
  }
  if (!a.save_path.empty()) {
    explore::ReplayFile rf;
    rf.scenario = a.cfg.scenario;
    rf.decisions = cex.decisions;
    rf.loop = cex.loop;
    rf.note = cex.violation.property + ": " + cex.violation.message;
    if (!explore::save_replay(a.save_path, rf)) {
      std::fprintf(stderr, "cannot write %s\n", a.save_path.c_str());
      return kExitUsage;
    }
    if (!a.json) {
      std::printf("  saved: %s (re-run with --replay=%s)\n",
                  a.save_path.c_str(), a.save_path.c_str());
    }
  }
  return kExitViolation;
}

/// Shrink, print, optionally save. Returns the process exit status.
int report_cex(const Args& a, const explore::ScenarioBuilder& build,
               explore::Counterexample cex, const char* how,
               bool reshrink) {
  std::uint64_t shrunk_from = 0;
  if (reshrink && a.cfg.shrink) {
    const explore::ShrinkResult s =
        explore::shrink(build, cex.decisions, cex.violation.property);
    shrunk_from = s.original_size;
    cex.decisions = s.decisions;
  }
  if (a.json) {
    std::printf(
        "{\"verdict\":\"violation\",\"property\":\"%s\",\"message\":\"%s\","
        "\"mode\":\"%s\",\"decisions\":\"%s\",\"shrunk_from\":%llu}\n",
        cex.violation.property.c_str(), cex.violation.message.c_str(), how,
        decisions_to_text(cex.decisions).c_str(),
        static_cast<unsigned long long>(shrunk_from));
  } else {
    std::printf("VIOLATION of %s (%s)\n", cex.violation.property.c_str(),
                how);
    std::printf("  %s\n", cex.violation.message.c_str());
    if (shrunk_from != 0) {
      std::printf("  shrunk: %llu -> %llu decisions\n",
                  static_cast<unsigned long long>(shrunk_from),
                  static_cast<unsigned long long>(cex.decisions.size()));
    }
    std::printf("  decisions: [%s]\n",
                decisions_to_text(cex.decisions).c_str());
  }
  if (!a.save_path.empty()) {
    explore::ReplayFile rf;
    rf.scenario = a.cfg.scenario;
    rf.decisions = cex.decisions;
    rf.note = cex.violation.property + ": " + cex.violation.message;
    if (!explore::save_replay(a.save_path, rf)) {
      std::fprintf(stderr, "cannot write %s\n", a.save_path.c_str());
      return kExitUsage;
    }
    if (!a.json) {
      std::printf("  saved: %s (re-run with --replay=%s)\n",
                  a.save_path.c_str(), a.save_path.c_str());
    }
  }
  return kExitViolation;
}

std::string conservative_to_json(const std::set<std::string>& ids) {
  std::string out = "[";
  for (const std::string& id : ids) {
    if (out.size() > 1) out += ",";
    out += "\"" + id + "\"";
  }
  return out + "]";
}

int run_exhaustive(const Args& a) {
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(a.cfg.scenario).builder();
  explore::SearchConfig cfg = a.cfg;

  // --deadline-ms: arm a watchdog that flips the explorer's cooperative
  // cancel flag, so a search that would outlive the deadline stops at a
  // clean wave boundary (partial stats, resumable frontier) instead of
  // hanging its lane.
  std::atomic<bool> cancel{false};
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog;
  if (a.deadline_ms > 0) {
    cfg.cancel = &cancel;
    watchdog = std::thread([&a, &cancel, &mu, &cv, &finished] {
      std::unique_lock<std::mutex> lock(mu);
      const bool done = cv.wait_for(
          lock, std::chrono::milliseconds(a.deadline_ms),
          [&finished] { return finished; });
      if (!done) cancel.store(true, std::memory_order_relaxed);
    });
  }
  explore::Explorer ex(build, cfg);
  const explore::ExploreReport rep = ex.run();
  if (watchdog.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_all();
    watchdog.join();
  }
  if (!rep.resume_error.empty()) {
    std::fprintf(stderr, "cannot resume %s: %s\n", cfg.resume_path.c_str(),
                 rep.resume_error.c_str());
    // An incompatible snapshot (different scenario / search
    // configuration) has its own exit code; corrupt or unreadable input
    // is a plain usage error.
    return rep.resume_rejected ? kExitResumeMismatch : kExitUsage;
  }
  const auto& st = rep.stats;
  const std::string cov = explore::coverage_name(explore::coverage(st));
  // A run that cannot persist its frontier must not report success, or
  // a save/resume loop would silently restart from scratch.
  const bool save_failed = !rep.save_error.empty();
  if (save_failed) {
    std::fprintf(stderr, "cannot save state: %s\n", rep.save_error.c_str());
  }
  // A concretization failure poisons the liveness verdict: the graph
  // says a fair cycle exists but no replay pins it, so neither "lasso"
  // nor "no fair cycle" would be honest. Diagnostic to stderr, own exit
  // code.
  if (!rep.lasso_error.empty()) {
    std::fprintf(stderr, "lasso concretization failed: %s\n",
                 rep.lasso_error.c_str());
    return kExitConcretize;
  }
  // A deadline cancel is a budget-style verdict: the search stopped at a
  // clean wave boundary with frontier left, so the lane's save/resume
  // loop treats it exactly like a spent state budget.
  const bool deadline_hit = rep.cancelled && !rep.cex.has_value();
  const bool budget_left =
      (cfg.budget_states != 0 || deadline_hit) && !st.exhausted &&
      !rep.cex.has_value();
  if (a.json && !rep.cex.has_value()) {
    std::string liveness_json;
    if (st.liveness) {
      liveness_json = ",\"graph_states\":" + std::to_string(st.graph_states) +
                      ",\"graph_edges\":" + std::to_string(st.graph_edges) +
                      ",\"graph_truncated\":" +
                      std::to_string(st.graph_truncated) +
                      ",\"fair_cycle_checked\":" +
                      (rep.fair_cycle_checked ? "true" : "false");
    }
    std::printf(
        "{\"verdict\":\"clean\",\"mode\":\"exhaustive\",\"states\":%llu,"
        "\"runs\":%llu,\"steps\":%llu,\"sleep_skips\":%llu,"
        "\"fp_prunes\":%llu,\"hb_races\":%llu,\"backtrack_points\":%llu,"
        "\"commute_skips\":%llu,\"injected_crashes\":%llu,"
        "\"injected_drops\":%llu,\"injected_dups\":%llu,"
        "\"fingerprints\":%llu,\"replayed_steps\":%llu,"
        "\"conservative_payloads\":%s,"
        "\"status\":\"%s\",\"coverage\":\"%s\","
        "\"resumed\":%s,\"resume_generation\":%llu,"
        "\"config\":%s%s}\n",
        static_cast<unsigned long long>(st.nodes),
        static_cast<unsigned long long>(st.runs),
        static_cast<unsigned long long>(st.steps),
        static_cast<unsigned long long>(st.sleep_skips),
        static_cast<unsigned long long>(st.fp_prunes),
        static_cast<unsigned long long>(st.hb_races),
        static_cast<unsigned long long>(st.backtrack_points),
        static_cast<unsigned long long>(st.commute_skips),
        static_cast<unsigned long long>(st.injected_crashes),
        static_cast<unsigned long long>(st.injected_drops),
        static_cast<unsigned long long>(st.injected_dups),
        static_cast<unsigned long long>(st.fingerprints),
        static_cast<unsigned long long>(st.replayed_steps),
        conservative_to_json(rep.conservative_payloads).c_str(),
        st.exhausted   ? "exhausted"
        : deadline_hit ? "deadline"
                       : "budget",
        cov.c_str(), rep.resumed ? "true" : "false",
        static_cast<unsigned long long>(rep.resume_generation),
        explore::config_to_json(cfg).c_str(), liveness_json.c_str());
    if (save_failed) return kExitUsage;
    return budget_left ? kExitBudget : kExitClean;
  }
  if (!a.json) {
    if (rep.resumed) {
      std::printf("resumed from %s (generation %llu)\n",
                  cfg.resume_path.c_str(),
                  static_cast<unsigned long long>(rep.resume_generation));
    }
    std::printf(
        "explored %llu states across %llu runs (%llu steps, "
        "%llu sleep-set skips, %llu fp prunes, %llu hb races, "
        "%llu backtrack points, %llu commute skips): %s [coverage: %s]\n",
        static_cast<unsigned long long>(st.nodes),
        static_cast<unsigned long long>(st.runs),
        static_cast<unsigned long long>(st.steps),
        static_cast<unsigned long long>(st.sleep_skips),
        static_cast<unsigned long long>(st.fp_prunes),
        static_cast<unsigned long long>(st.hb_races),
        static_cast<unsigned long long>(st.backtrack_points),
        static_cast<unsigned long long>(st.commute_skips),
        st.exhausted          ? "tree exhausted"
        : rep.cex.has_value() ? "stopped at violation"
        : deadline_hit        ? "deadline reached"
                              : "budget reached",
        cov.c_str());
    std::printf("fingerprints: %llu computed, %llu replayed steps\n",
                static_cast<unsigned long long>(st.fingerprints),
                static_cast<unsigned long long>(st.replayed_steps));
    if (st.injected_crashes + st.injected_drops + st.injected_dups != 0) {
      std::printf(
          "injected faults: %llu crashes, %llu drops, %llu duplicates\n",
          static_cast<unsigned long long>(st.injected_crashes),
          static_cast<unsigned long long>(st.injected_drops),
          static_cast<unsigned long long>(st.injected_dups));
    }
    if (!rep.conservative_payloads.empty()) {
      std::printf("conservative payloads (no commutativity audit):");
      for (const std::string& id : rep.conservative_payloads) {
        std::printf(" %s", id.c_str());
      }
      std::printf("\n");
    }
    if (st.liveness) {
      std::printf("state graph: %llu states, %llu edges, %llu truncated\n",
                  static_cast<unsigned long long>(st.graph_states),
                  static_cast<unsigned long long>(st.graph_edges),
                  static_cast<unsigned long long>(st.graph_truncated));
    }
  }
  if (rep.cex.has_value()) {
    if (!rep.cex->loop.empty()) {
      return report_lasso(a, *rep.cex, "exhaustive");
    }
    return report_cex(a, build, *rep.cex, "exhaustive", /*reshrink=*/true);
  }
  if (rep.fair_cycle_checked && !a.json) {
    std::printf("no fair cycle avoids the goal (liveness=%s holds on the "
                "explored graph)\n",
                a.cfg.scenario.liveness.c_str());
  }
  const bool saved = !cfg.save_path.empty() && !save_failed;
  if (saved) {
    std::printf("state saved: %s (continue with --resume=%s)\n",
                cfg.save_path.c_str(), cfg.save_path.c_str());
  }
  std::printf("no violation found%s\n",
              !budget_left   ? ""
              : deadline_hit ? " yet (deadline reached, partial results)"
              : saved        ? " yet (budget exhausted, frontier saved)"
                             : " yet (budget exhausted)");
  if (save_failed) return kExitUsage;
  return budget_left ? kExitBudget : kExitClean;
}

int run_campaign_mode(const Args& a) {
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(a.cfg.scenario).builder();
  const explore::CampaignReport rep = explore::run_campaign(build, a.cfg);
  if (a.json && !rep.cex.has_value()) {
    std::printf(
        "{\"verdict\":\"clean\",\"mode\":\"campaign\",\"runs\":%llu,"
        "\"steps\":%llu,\"frontier_states\":%llu,"
        "\"liveness_suspects\":%llu}\n",
        static_cast<unsigned long long>(rep.runs),
        static_cast<unsigned long long>(rep.steps),
        static_cast<unsigned long long>(rep.nodes),
        static_cast<unsigned long long>(rep.liveness_suspects));
    return kExitClean;
  }
  std::printf(
      "campaign: %llu random runs, %llu frontier states, %llu steps, "
      "%llu liveness suspects\n",
      static_cast<unsigned long long>(rep.runs),
      static_cast<unsigned long long>(rep.nodes),
      static_cast<unsigned long long>(rep.steps),
      static_cast<unsigned long long>(rep.liveness_suspects));
  if (rep.cex.has_value()) {
    // The campaign already shrank it (when enabled).
    return report_cex(a, build, *rep.cex, "campaign", /*reshrink=*/false);
  }
  std::printf("no violation found\n");
  return kExitClean;
}

int run_replay_mode(const Args& a) {
  std::string error;
  const auto rf = explore::load_replay(a.replay_path, &error);
  if (!rf.has_value()) {
    std::fprintf(stderr, "bad replay file: %s\n", error.c_str());
    return kExitUsage;
  }
  if (!rf->loop.empty()) {
    // Lasso replay: re-validate the fair cycle rather than just re-run
    // the stem. The saved file keeps the scenario as searched; the
    // horizon is widened here exactly as the probe that found the lasso
    // widened it.
    explore::ScenarioOptions wide = rf->scenario;
    wide.max_steps = std::max<std::uint64_t>(
        wide.max_steps, rf->decisions.size() + rf->loop.size() + 8);
    const explore::ScenarioBuilder build =
        explore::ScenarioFactory(wide).builder();
    const explore::LassoOutcome out =
        explore::run_lasso(build, rf->decisions, rf->loop);
    if (out.ok) {
      if (a.json) {
        std::printf(
            "{\"verdict\":\"violation\",\"property\":\"liveness(%s)\","
            "\"mode\":\"lasso-replay\",\"stem_steps\":%llu,"
            "\"loop_steps\":%llu}\n",
            rf->scenario.liveness.c_str(),
            static_cast<unsigned long long>(out.stem_steps),
            static_cast<unsigned long long>(out.loop_steps));
      } else {
        std::printf(
            "lasso confirmed: fair %llu-step loop entered after %llu steps, "
            "goal liveness(%s) never converges\n",
            static_cast<unsigned long long>(out.loop_steps),
            static_cast<unsigned long long>(out.stem_steps),
            rf->scenario.liveness.c_str());
      }
      return kExitViolation;
    }
    if (out.violation.has_value()) {
      std::printf("VIOLATION of %s (lasso replay hit a safety violation)\n",
                  out.violation->property.c_str());
      std::printf("  %s\n", out.violation->message.c_str());
      return kExitViolation;
    }
    std::printf("lasso NOT confirmed: %s\n", out.reason.c_str());
    return kExitClean;
  }
  const explore::ScenarioBuilder build =
      explore::ScenarioFactory(rf->scenario).builder();
  const explore::ReplayOutcome out =
      explore::run_replay(build, rf->decisions);
  if (out.violation.has_value()) {
    if (a.json) {
      std::printf(
          "{\"verdict\":\"violation\",\"property\":\"%s\",\"message\":\"%s\","
          "\"mode\":\"replay\",\"steps\":%llu}\n",
          out.violation->property.c_str(), out.violation->message.c_str(),
          static_cast<unsigned long long>(out.steps));
    } else {
      std::printf("VIOLATION of %s (replay, %llu steps)\n",
                  out.violation->property.c_str(),
                  static_cast<unsigned long long>(out.steps));
      std::printf("  %s\n", out.violation->message.c_str());
    }
    return kExitViolation;
  }
  std::printf("replay clean: %llu steps, all done: %s\n",
              static_cast<unsigned long long>(out.steps),
              out.all_done ? "yes" : "no");
  return kExitClean;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return kExitUsage;
  }
  if (a.mode != Args::Mode::kReplay) {
    const std::string why = explore::validate(a.cfg);
    if (!why.empty()) {
      std::fprintf(stderr, "invalid configuration: %s\n", why.c_str());
      return kExitUsage;
    }
  }
  if (a.mode != Args::Mode::kExhaustive &&
      (!a.cfg.save_path.empty() || !a.cfg.resume_path.empty() ||
       a.cfg.budget_states != 0 || a.deadline_ms != 0)) {
    std::fprintf(stderr,
                 "--save-state/--resume/--budget-states/--deadline-ms "
                 "require --exhaustive\n");
    return kExitUsage;
  }
  switch (a.mode) {
    case Args::Mode::kExhaustive:
      return run_exhaustive(a);
    case Args::Mode::kCampaign:
      return run_campaign_mode(a);
    case Args::Mode::kReplay:
      return run_replay_mode(a);
  }
  return kExitUsage;
}
