// Explorer workloads: exhaustive searches run in-process through the
// public explore API, exactly as wfd_check --exhaustive runs them.
//
// Untraced repetitions hand the explorer the factory's builder as is. The
// traced repetition wraps it: every ScenarioBuilder call, and every call
// into the ChoiceSource, Invariant and LivenessClause objects the built
// scenario hands back, runs inside a span (tracer.h). The sim probe
// drives the same builder with seeded RandomChoices and times
// Simulator::step and Simulator::state_fingerprint directly.
#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "explore/explorer.h"
#include "explore/scenario.h"
#include "explore/search_config.h"
#include "sim/choice.h"
#include "tracer.h"

namespace perfbench {
namespace {

using wfd::explore::Explorer;
using wfd::explore::ExploreReport;
using wfd::explore::Scenario;
using wfd::explore::ScenarioBuilder;
using wfd::explore::ScenarioFactory;
using wfd::explore::SearchConfig;

struct ExploreSpec {
  std::vector<std::string> flags;
  bool liveness;
};

ExploreSpec spec_for(const RunOptions& opt) {
  ExploreSpec s;
  if (opt.workload == "explore_register_n4") {
    s.flags = {"--problem=register", "--n=4",         "--reg-ops=1",
               "--reg-readers=1",    "--fd=static",   "--depth=20",
               "--max-states=0",     "--threads=1"};
    s.liveness = false;
    if (opt.tiny) s.flags[1] = "--n=3", s.flags[5] = "--depth=12";
  } else {
    s.flags = {"--problem=consensus", "--n=3",
               "--liveness=termination", "--crash=explore", "--crashes=1",
               "--fd=static",         "--reduction=none",
               "--depth=12",          "--max-states=0",
               "--threads=1"};
    s.liveness = true;
    if (opt.tiny) s.flags[7] = "--depth=6";
  }
  if (!opt.problem.empty()) s.flags[0] = "--problem=" + opt.problem;
  return s;
}

SearchConfig make_config(const ExploreSpec& spec) {
  SearchConfig cfg;
  for (const std::string& f : spec.flags) {
    if (wfd::explore::apply_cli_flag(cfg, f) !=
        wfd::explore::CliResult::kApplied) {
      throw std::runtime_error("explorer flag not accepted: " + f);
    }
  }
  return cfg;
}

// --- Traced wrappers -------------------------------------------------------

struct SpanIds {
  std::uint32_t build, choose, note_enabled, check, encode, goal;
};

const SpanIds& ids() {
  static const SpanIds s{
      Tracer::get().intern("scenario.build"),
      Tracer::get().intern("explore.choose"),
      Tracer::get().intern("explore.note_enabled"),
      Tracer::get().intern("property.check"),
      Tracer::get().intern("property.encode"),
      Tracer::get().intern("liveness.goal")};
  return s;
}

class TimedChoices final : public wfd::sim::ChoiceSource {
 public:
  explicit TimedChoices(wfd::sim::ChoiceSource& inner) : inner_(&inner) {}
  std::size_t choose(wfd::sim::ChoiceKind kind,
                     const std::vector<std::uint64_t>& labels) override {
    const Span s(ids().choose);
    return inner_->choose(kind, labels);
  }
  void note_enabled(wfd::sim::ChoiceKind kind,
                    const std::vector<std::uint64_t>& labels) override {
    const Span s(ids().note_enabled);
    inner_->note_enabled(kind, labels);
  }

 private:
  wfd::sim::ChoiceSource* inner_;
};

class TimedInvariant final : public wfd::explore::Invariant {
 public:
  explicit TimedInvariant(std::unique_ptr<wfd::explore::Invariant> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  std::optional<wfd::explore::Violation> check(
      const wfd::sim::Simulator& sim) override {
    const Span s(ids().check);
    return inner_->check(sim);
  }
  void encode_state(wfd::sim::StateEncoder& enc) const override {
    const Span s(ids().encode);
    inner_->encode_state(enc);
  }

 private:
  std::unique_ptr<wfd::explore::Invariant> inner_;
};

class TimedClause final : public wfd::explore::LivenessClause {
 public:
  explicit TimedClause(std::unique_ptr<wfd::explore::LivenessClause> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool goal(const wfd::sim::Simulator& sim) const override {
    const Span s(ids().goal);
    return inner_->goal(sim);
  }

 private:
  std::unique_ptr<wfd::explore::LivenessClause> inner_;
};

/// Wraps a builder so each scenario it builds is traced. The explorer
/// (threads=1) keeps one scenario alive at a time and builds the next
/// only after the previous is destroyed, so a small ring of choice
/// wrappers outlives every scenario that holds one.
ScenarioBuilder traced_builder(ScenarioBuilder inner) {
  struct Ring {
    std::array<std::unique_ptr<TimedChoices>, 4> slots;
    std::size_t next = 0;
  };
  auto ring = std::make_shared<Ring>();
  return [inner = std::move(inner), ring](wfd::sim::ChoiceSource& source) {
    const Span s(ids().build);
    auto& slot = ring->slots[ring->next++ % ring->slots.size()];
    slot = std::make_unique<TimedChoices>(source);
    Scenario sc = inner(*slot);
    for (auto& inv : sc.invariants) {
      inv = std::make_unique<TimedInvariant>(std::move(inv));
    }
    for (auto& clause : sc.liveness) {
      clause = std::make_unique<TimedClause>(std::move(clause));
    }
    return sc;
  };
}

// --- One exhaustive search -------------------------------------------------

struct Counts {
  std::map<std::string, std::uint64_t> v;
  bool operator==(const Counts& o) const { return v == o.v; }
};

Counts counts_of(const ExploreReport& rep) {
  const auto& st = rep.stats;
  Counts c;
  c.v = {{"states", st.nodes},
         {"runs", st.runs},
         {"steps", st.steps},
         {"fp_prunes", st.fp_prunes},
         {"sleep_skips", st.sleep_skips},
         {"hb_races", st.hb_races},
         {"backtrack_points", st.backtrack_points},
         {"commute_skips", st.commute_skips},
         {"graph_states", st.graph_states},
         {"graph_edges", st.graph_edges},
         {"injected_crashes", st.injected_crashes}};
  return c;
}

struct Rep {
  double wall_s = 0;
  double peak_rss_mb = 0;
  Counts counts;
  std::string verdict;  ///< Empty when clean, else what went wrong.
};

Rep run_once(const SearchConfig& cfg, const ScenarioBuilder& build,
             bool liveness) {
  Explorer ex(build, cfg);
  reset_peak_rss();
  const std::int64_t t0 = now_ns();
  const ExploreReport rep = ex.run();
  Rep r;
  r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  r.peak_rss_mb = peak_rss_mb();
  r.counts = counts_of(rep);
  if (rep.cex.has_value()) {
    r.verdict = rep.cex->loop.empty() ? "safety violation" : "fair cycle";
  } else if (!rep.lasso_error.empty()) {
    r.verdict = "lasso error: " + rep.lasso_error;
  } else if (!rep.stats.exhausted ||
             wfd::explore::coverage(rep.stats) ==
                 wfd::explore::Coverage::kBudget) {
    r.verdict = "not exhausted";
  } else if (liveness && !rep.fair_cycle_checked) {
    r.verdict = "fair-cycle search did not run";
  }
  return r;
}

/// Time to ready: validation, the factory, its builder and the explorer.
/// One set-up takes well under a millisecond, so this is the mean over a
/// batch of them.
double setup_batch(const SearchConfig& cfg) {
  constexpr int kBatch = 50;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kBatch; ++i) {
    const std::string why = wfd::explore::validate(cfg);
    if (!why.empty()) throw std::runtime_error("invalid search: " + why);
    const ScenarioFactory factory(cfg.scenario);
    const Explorer ex(factory.builder(), cfg);
    (void)ex;
  }
  return static_cast<double>(now_ns() - t0) / 1e9 / kBatch;
}

/// Per-step and per-fingerprint cost of the workload's scenario, from
/// random runs drawn with probe seeds derived from the workload seed.
void sim_probe(const SearchConfig& cfg, std::uint64_t seed, Result& res) {
  const ScenarioFactory factory(cfg.scenario);
  std::uint64_t steps = 0;
  std::int64_t step_ns = 0;
  std::int64_t fp_ns = 0;
  const std::int64_t deadline = now_ns() + 500'000'000;
  for (std::uint64_t i = 0; i < 20000 && now_ns() < deadline; ++i) {
    wfd::sim::RandomChoices choices(mix_seed(seed, 100 + i));
    Scenario sc = factory.build(choices);
    while (true) {
      const std::int64_t t0 = now_ns();
      const bool more = sc.sim->step();
      const std::int64_t t1 = now_ns();
      if (!more) break;
      const std::optional<std::uint64_t> fp = sc.sim->state_fingerprint();
      const std::int64_t t2 = now_ns();
      (void)fp;
      ++steps;
      step_ns += t1 - t0;
      fp_ns += t2 - t1;
    }
  }
  const double n = steps == 0 ? 1 : static_cast<double>(steps);
  res.metric("sim.step_ns", static_cast<double>(step_ns) / n);
  res.metric("sim.fingerprint_ns", static_cast<double>(fp_ns) / n);
}

}  // namespace

Result run_explore(const RunOptions& opt) {
  const ExploreSpec spec = spec_for(opt);
  const SearchConfig cfg = make_config(spec);
  Result res;
  std::string flags;
  for (const std::string& f : spec.flags) flags += (flags.empty() ? "" : " ") + f;
  res.context.emplace_back("explore_flags", flags + " --exhaustive");

  std::vector<double> setups;
  for (int i = 0; i < 21; ++i) setups.push_back(setup_batch(cfg));
  const ScenarioBuilder plain = ScenarioFactory(cfg.scenario).builder();

  // At least two searches per run, so determinism is checked every run;
  // the traced run makes its second search the traced one.
  std::vector<Rep> reps;
  const std::int64_t start = now_ns();
  while (reps.size() < 2 ||
         (!opt.trace &&
          static_cast<double>(now_ns() - start) / 1e9 < opt.seconds)) {
    const bool traced = opt.trace && reps.size() == 1;
    if (traced) {
      Tracer::get().reset();
      Tracer::get().enable(true);
    }
    reps.push_back(
        run_once(cfg, traced ? traced_builder(plain) : plain, spec.liveness));
    Tracer::get().enable(false);
  }

  bool deterministic = true;
  std::string wrong;
  for (const Rep& r : reps) {
    ++res.attempted;
    const bool same = r.counts == reps.front().counts;
    deterministic = deterministic && same;
    if (!r.verdict.empty() || !same) ++res.failed;
    if (wrong.empty()) wrong = r.verdict;
  }
  const Rep& first = reps.front();
  res.gate("verdict_clean_exhausted", wrong.empty(),
           wrong.empty() ? "every search exhausted clean" : wrong);
  res.gate("counts_deterministic", deterministic,
           std::to_string(reps.size()) + " searches");
  std::string count_text;
  for (const auto& [k, v] : first.counts.v) {
    count_text += (count_text.empty() ? "" : " ") + k + "=" + std::to_string(v);
  }
  res.context.emplace_back("explore_counts", count_text);

  std::vector<double> walls;
  std::vector<double> rss;
  std::string wall_text;
  for (const Rep& r : reps) {
    walls.push_back(r.wall_s);
    rss.push_back(r.peak_rss_mb);
    wall_text += (wall_text.empty() ? "" : " ") + std::to_string(r.wall_s);
  }
  res.context.emplace_back("search_walls_s", wall_text);
  if (!opt.trace) {
    const double wall = median(walls);
    res.metric("wall_s", wall);
    res.metric("setup_s", median(setups));
    res.metric("peak_rss_mb", median(rss));
    res.metric("ops_per_s", 1.0 / wall);
    res.metric("p50_ms", wall * 1e3);
    res.metric("p99_ms", percentile(walls, 0.99) * 1e3);
    return res;
  }

  const double wall_plain = reps[0].wall_s;
  const double wall_traced = reps[1].wall_s;
  const auto sums = Tracer::get().totals();
  const auto get = [&sums](const std::string& name) {
    auto it = sums.find(name);
    return it == sums.end() ? SpanTotals{} : it->second;
  };
  const auto secs = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  const auto cnt = [&first](const std::string& k) {
    return static_cast<double>(first.counts.v.at(k));
  };
  for (const auto& [k, v] : first.counts.v) {
    res.metric("explore." + k, static_cast<double>(v));
  }
  const double states = cnt("states");
  res.metric("explore.steps_per_state", states > 0 ? cnt("steps") / states : 0);
  res.metric("explore.states_per_s", states / wall_plain);
  res.metric("explore.choose.count", static_cast<double>(get("explore.choose").count));
  res.metric("explore.choose.self_s",
             secs(get("explore.choose").self_ns +
                  get("explore.note_enabled").self_ns));
  std::int64_t covered = 0;
  for (const auto& [name, s] : sums) covered += s.self_ns;
  res.metric("explore.self_s", wall_traced - secs(covered));
  res.metric("scenario.build.count", static_cast<double>(get("scenario.build").count));
  res.metric("scenario.build.self_s", secs(get("scenario.build").self_ns));
  res.metric("property.check.count", static_cast<double>(get("property.check").count));
  res.metric("property.check.self_s", secs(get("property.check").self_ns));
  res.metric("property.encode.self_s", secs(get("property.encode").self_ns));
  res.metric("liveness.goal.count", static_cast<double>(get("liveness.goal").count));
  res.metric("liveness.goal.self_s", secs(get("liveness.goal").self_ns));
  res.metric("trace.overhead_pct", (wall_traced / wall_plain - 1.0) * 100.0);
  sim_probe(cfg, opt.seed, res);
  return res;
}

}  // namespace perfbench
