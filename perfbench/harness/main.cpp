// perfbench_harness: runs one benchmark workload in-process and prints
// one JSON line with its gates, counts, metrics and context. run.py builds
// this binary, runs it, and turns that line into the benchmark's result.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--spans-out=FILE] [--tiny] [--problem=NAME]
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "tracer.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = PERFBENCH_SANITIZED != 0;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Milliseconds a fixed integer loop takes: a reading of host CPU speed
/// at the time of the run, for judging drift between runs. A CPU that has
/// been idle can run this loop at half speed for a few hundred ms.
double host_reference_ms() {
  const std::int64_t t0 = perfbench::now_ns();
  std::uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) x = perfbench::mix_seed(x, 0);
  const std::int64_t t1 = perfbench::now_ns();
  if (x == 0) std::printf("\n");  // Keeps the loop.
  return static_cast<double>(t1 - t0) / 1e6;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

void print_result(const perfbench::Result& r) {
  std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"gates\":[";
  for (std::size_t i = 0; i < r.gates.size(); ++i) {
    const auto& g = r.gates[i];
    out += (i ? "," : "") + std::string("{\"name\":\"") + json_escape(g.name) +
           "\",\"ok\":" + (g.ok ? "true" : "false") + ",\"detail\":\"" +
           json_escape(g.detail) + "\"}";
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", r.metrics[i].second);
    out += (i ? "," : "") + std::string("\"") + json_escape(r.metrics[i].first) +
           "\":" + num;
  }
  out += "},\"context\":{";
  for (std::size_t i = 0; i < r.context.size(); ++i) {
    out += (i ? "," : "") + std::string("\"") + json_escape(r.context[i].first) +
           "\":\"" + json_escape(r.context[i].second) + "\"";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool parse(int argc, char** argv, perfbench::RunOptions& o,
           std::string& spans_out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&a](const char* key) -> const char* {
      const std::string k = std::string(key) + "=";
      return a.rfind(k, 0) == 0 ? a.c_str() + k.size() : nullptr;
    };
    if (const char* v = val("--workload")) {
      o.workload = v;
    } else if (const char* v = val("--seed")) {
      o.seed = std::stoull(v);
    } else if (const char* v = val("--seconds")) {
      o.seconds = std::stod(v);
    } else if (const char* v = val("--trace")) {
      o.trace = std::string(v) == "1";
    } else if (const char* v = val("--spans-out")) {
      spans_out = v;
    } else if (const char* v = val("--problem")) {
      o.problem = v;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to record from a %s build "
                 "(build type %s); rebuild optimized without sanitizers\n",
                 kSanitized ? "sanitized" : "non-optimized",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  perfbench::RunOptions opt;
  std::string spans_out;
  try {
    if (!parse(argc, argv, opt, spans_out)) return 2;
    // Warm-up: spin until the CPU runs the reference loop at a steady
    // speed, so the first timed set-up does not pay for the ramp.
    const double ref_cold = host_reference_ms();
    double ref_before = host_reference_ms();
    for (int i = 0; i < 10; ++i) {
      const double again = host_reference_ms();
      const bool steady = again > 0.95 * ref_before && again < 1.05 * ref_before;
      ref_before = again;
      if (steady) break;
    }
    perfbench::Result r;
    if (opt.workload == "explore_register_n4" ||
        opt.workload == "explore_liveness_crash_n3") {
      r = perfbench::run_explore(opt);
    } else if (opt.workload == "kv_closed_n3") {
      r = perfbench::run_kv_closed(opt);
    } else if (opt.workload == "kv_failover_n3") {
      r = perfbench::run_kv_failover(opt);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
    r.context.emplace_back("host_reference_ms",
                           std::to_string(ref_cold) + " " +
                               std::to_string(ref_before) + " " +
                               std::to_string(host_reference_ms()));
    r.context.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    r.context.emplace_back("nproc",
                           std::to_string(std::thread::hardware_concurrency()));
    if (opt.trace && !spans_out.empty() &&
        !perfbench::Tracer::get().write_json(spans_out)) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   spans_out.c_str());
      return 1;
    }
    print_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  return 0;
}
