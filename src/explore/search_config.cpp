#include "explore/search_config.h"

#include <optional>
#include <sstream>

#include "explore/option_text.h"

namespace wfd::explore {

namespace {

using detail::parse_bool;
using detail::parse_int;
using detail::parse_time;
using detail::parse_u64;

/// --loss=drop:N[,dup:M] (either component, any order, each at most
/// once). Writes s only when the whole value parses.
bool parse_loss(const std::string& v, ScenarioOptions& s) {
  int drops = 0;
  int dups = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = v.find(',', start);
    const std::string part =
        v.substr(start, comma == std::string::npos ? std::string::npos
                                                   : comma - start);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    const std::string key = part.substr(0, colon);
    int* slot = key == "drop" ? &drops : key == "dup" ? &dups : nullptr;
    if (slot == nullptr || *slot != 0) return false;
    if (!parse_int(part.substr(colon + 1), slot) || *slot < 1) return false;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (drops > 0) s.loss_drops = drops;
  if (dups > 0) s.loss_dups = dups;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string reduction_to_text(Reduction r) {
  switch (r) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSleepSets:
      return "sleep-sets";
    case Reduction::kDpor:
      return "dpor";
  }
  return "unknown";
}

bool parse_reduction(const std::string& s, Reduction* out) {
  if (s == "none") {
    *out = Reduction::kNone;
  } else if (s == "sleep-sets") {
    *out = Reduction::kSleepSets;
  } else if (s == "dpor") {
    *out = Reduction::kDpor;
  } else {
    return false;
  }
  return true;
}

std::string validate(const SearchConfig& cfg) {
  const std::string why = ScenarioFactory::validate(cfg.scenario);
  if (!why.empty()) return why;
  if (cfg.threads < 1 || cfg.threads > 64) {
    return "threads must be in [1, 64], got " + std::to_string(cfg.threads);
  }
  if (cfg.frontier_workers < 0 || cfg.frontier_workers > 64) {
    return "frontier workers must be in [0, 64], got " +
           std::to_string(cfg.frontier_workers);
  }
  if (!cfg.scenario.liveness.empty()) {
    // The fair-cycle search needs the explored graph to be the complete
    // transition system: every reachable state expanded over its full
    // menu, prunes only at expanded fingerprints. Reductions drop
    // interleavings (sound for safety, not for cycle existence) and
    // symmetry merges nodes under renaming, which breaks the per-process
    // fairness bookkeeping.
    if (cfg.reduction != Reduction::kNone) {
      return "liveness checking requires --reduction=none (partial-order "
             "reduction drops interleavings that may carry the fair cycle)";
    }
    if (cfg.symmetry) {
      return "liveness checking is incompatible with --symmetry (renamed "
             "merges break per-process fairness accounting)";
    }
    if (!cfg.state_fingerprints) {
      return "liveness checking requires state fingerprints (the state "
             "graph is keyed on them); drop --no-fingerprints";
    }
  }
  if (cfg.symmetry) {
    const auto classes = ScenarioFactory::symmetry_classes(cfg.scenario);
    if (classes.empty()) {
      return "symmetry reduction is not supported for this scenario "
             "(problem '" +
             cfg.scenario.problem +
             "' has no verified symmetry classes, or the fault script / "
             "detector configuration breaks the renaming argument)";
    }
  }
  return "";
}

CliResult apply_cli_flag(SearchConfig& cfg, const std::string& arg) {
  const auto val = [&](const char* key) -> std::optional<std::string> {
    const std::string prefix = std::string("--") + key + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    return std::nullopt;
  };
  const auto as = [](bool ok) {
    return ok ? CliResult::kApplied : CliResult::kBadValue;
  };
  ScenarioOptions& s = cfg.scenario;
  // Scenario surface.
  if (auto v = val("problem")) {
    s.problem = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("n")) return as(parse_int(*v, &s.n));
  if (auto v = val("crashes")) return as(parse_int(*v, &s.crashes));
  if (auto v = val("crash-time")) return as(parse_time(*v, &s.crash_time));
  if (auto v = val("crash")) {
    if (*v != "script" && *v != "explore") return CliResult::kBadValue;
    s.crash_mode = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("loss")) return as(parse_loss(*v, s));
  if (auto v = val("depth")) return as(parse_time(*v, &s.max_steps));
  if (auto v = val("seed")) return as(parse_u64(*v, &s.seed));
  if (auto v = val("stab")) return as(parse_time(*v, &s.stabilization));
  if (auto v = val("fd")) {
    if (*v != "flap" && *v != "static") return CliResult::kBadValue;
    s.fd_per_query = (*v == "flap");
    return CliResult::kApplied;
  }
  if (auto v = val("liveness")) {
    s.liveness = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("nbac-no-voter")) {
    return as(parse_int(*v, &s.nbac_no_voter));
  }
  if (auto v = val("reg-ops")) return as(parse_int(*v, &s.reg_ops));
  if (auto v = val("reg-readers")) return as(parse_int(*v, &s.reg_readers));
  if (auto v = val("abcast-senders")) {
    return as(parse_int(*v, &s.abcast_senders));
  }
  if (arg == "--all-pending") {
    s.oldest_per_channel = false;
    return CliResult::kApplied;
  }
  // Search surface.
  if (auto v = val("max-states")) return as(parse_u64(*v, &cfg.max_states));
  if (auto v = val("reduction")) {
    return as(parse_reduction(*v, &cfg.reduction));
  }
  if (arg == "--symmetry") {
    cfg.symmetry = true;
    return CliResult::kApplied;
  }
  if (arg == "--no-fingerprints") {
    cfg.state_fingerprints = false;
    return CliResult::kApplied;
  }
  if (auto v = val("order-seed")) return as(parse_u64(*v, &cfg.order_seed));
  if (auto v = val("threads")) {
    int threads = 0;
    if (!parse_int(*v, &threads) || threads < 1) return CliResult::kBadValue;
    cfg.threads = threads;
    return CliResult::kApplied;
  }
  if (auto v = val("budget-states")) {
    return as(parse_u64(*v, &cfg.budget_states));
  }
  // An empty path would silently mean "off" (a bare --resume= would
  // start a fresh search), so it is refused.
  if (auto v = val("save-state")) {
    if (v->empty()) return CliResult::kBadValue;
    cfg.save_path = *v;
    return CliResult::kApplied;
  }
  if (auto v = val("resume")) {
    if (v->empty()) return CliResult::kBadValue;
    cfg.resume_path = *v;
    return CliResult::kApplied;
  }
  // Campaign surface.
  if (auto v = val("runs")) return as(parse_u64(*v, &cfg.runs));
  if (arg == "--no-shrink") {
    cfg.shrink = false;
    return CliResult::kApplied;
  }
  if (auto v = val("frontier")) {
    return as(parse_int(*v, &cfg.frontier_workers));
  }
  return CliResult::kUnknown;
}

std::string cli_flags_help() {
  return "  --problem=NAME --n=N --crashes=K --crash-time=T\n"
         "  --crash=script|explore --loss=drop:N[,dup:M]\n"
         "  --depth=T --seed=S --stab=T --fd=flap|static\n"
         "  --liveness=termination|leadership|fd-completeness\n"
         "  --nbac-no-voter=P --reg-ops=N --reg-readers=N\n"
         "  --abcast-senders=N --all-pending\n"
         "  --max-states=N --threads=N --reduction=dpor|sleep-sets|none\n"
         "  --symmetry --no-fingerprints --order-seed=S\n"
         "  --budget-states=N --save-state=FILE --resume=FILE\n"
         "  --runs=N --frontier=N --no-shrink\n";
}

void search_header_to_text(std::ostream& out, const SearchConfig& cfg) {
  detail::scenario_to_text(out, cfg.scenario);
  out << "reduction=" << reduction_to_text(cfg.reduction) << "\n";
  out << "symmetry=" << (cfg.symmetry ? 1 : 0) << "\n";
  out << "state_fingerprints=" << (cfg.state_fingerprints ? 1 : 0) << "\n";
  out << "order_seed=" << cfg.order_seed << "\n";
}

bool search_header_apply(SearchConfig& cfg, const std::string& key,
                         const std::string& val, bool* ok) {
  *ok = true;
  if (detail::scenario_apply(cfg.scenario, key, val, ok)) return true;
  if (key == "reduction") {
    *ok = parse_reduction(val, &cfg.reduction);
  } else if (key == "symmetry") {
    *ok = parse_bool(val, &cfg.symmetry);
  } else if (key == "state_fingerprints") {
    *ok = parse_bool(val, &cfg.state_fingerprints);
  } else if (key == "order_seed") {
    *ok = parse_u64(val, &cfg.order_seed);
  } else {
    return false;
  }
  return true;
}

std::string config_to_json(const SearchConfig& cfg) {
  const ScenarioOptions& s = cfg.scenario;
  std::ostringstream out;
  out << "{\"problem\":\"" << json_escape(s.problem) << "\",\"n\":" << s.n
      << ",\"crashes\":" << s.crashes << ",\"crash_mode\":\"" << s.crash_mode
      << "\",\"loss_drops\":" << s.loss_drops
      << ",\"loss_dups\":" << s.loss_dups << ",\"depth\":" << s.max_steps
      << ",\"seed\":" << s.seed
      << ",\"fd_per_query\":" << (s.fd_per_query ? "true" : "false")
      << ",\"liveness\":\"" << json_escape(s.liveness) << "\""
      << ",\"max_states\":" << cfg.max_states << ",\"reduction\":\""
      << reduction_to_text(cfg.reduction) << "\",\"symmetry\":"
      << (cfg.symmetry ? "true" : "false") << ",\"state_fingerprints\":"
      << (cfg.state_fingerprints ? "true" : "false")
      << ",\"order_seed\":" << cfg.order_seed
      << ",\"threads\":" << cfg.threads
      << ",\"budget_states\":" << cfg.budget_states << "}";
  return out.str();
}

}  // namespace wfd::explore
