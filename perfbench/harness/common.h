// Shared pieces of the benchmark harness: the run options, the result a
// workload hands back, and small statistics helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny instance of the workload (harness self-test only).
  bool tiny = false;
  /// Replaces the explored problem (self-test: a seeded bug must be
  /// counted as a wrong verdict). Empty = the workload's own problem.
  std::string problem;
};

/// What one workload run reports. Metric names are the ones listed in
/// BENCHMARK.json; run.py attaches the units.
struct Result {
  std::vector<std::pair<std::string, double>> metrics;
  /// Correctness gates: name, passed, detail.
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Gate> gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> context;

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates.push_back(Gate{name, ok, detail});
  }
};

/// Median of a sample (0 for an empty one); takes a copy to sort.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile q in [0, 1] (0 for an empty sample).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Peak resident set size of this process since the last
/// reset_peak_rss(), in MiB (VmHWM).
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Restarts the VmHWM peak at the current RSS, so each unit of work gets
/// its own peak (kernel clear_refs "5"; a no-op where unsupported).
inline void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// splitmix64: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Result run_explore(const RunOptions& opt);
Result run_kv_closed(const RunOptions& opt);
Result run_kv_failover(const RunOptions& opt);

}  // namespace perfbench
