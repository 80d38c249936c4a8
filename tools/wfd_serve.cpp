// wfd_serve — the protocol stack as a service.
//
// Boots the replicated KV (src/runtime/kv.h): n replicas, each a
// thread-per-process runtime host running the *unmodified* module stack
// (ReplicatedObjectModule / AtomicBroadcast / URB / per-round
// (Omega, Sigma) consensus) with the implementable detectors
// (heartbeat/lease Omega + phi-accrual quorum view) merged into the
// host's detector sample. Examples:
//
//   wfd_serve                         # demo: puts/gets, kill the leader,
//                                     # show the service surviving it
//   wfd_serve --seconds=10            # closed-loop load, progress line/s
//   wfd_serve --bench --out=BENCH_runtime.json
//                                     # load matrix -> machine-readable
//                                     # JSON (ops/s, p50/p99, failover)
//
// Exit status: 0 on success, 1 on usage error, 2 when the service
// wedged (an operation exhausted every attempt).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "explore/option_text.h"
#include "runtime/kv.h"

using namespace wfd;

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  int n = 3;
  bool bench = false;
  int seconds = 0;        ///< >0: timed load run instead of the demo.
  int clients = 3;
  double secs_per_row = 1.5;
  std::uint64_t seed = 1;
  std::string out = "BENCH_runtime.json";
};

void usage() {
  std::fprintf(
      stderr,
      "usage: wfd_serve [--n=N] [--seed=S]\n"
      "                 [--seconds=S]            timed closed-loop load\n"
      "                 [--bench] [--out=FILE]   load matrix -> JSON\n"
      "                 [--clients=C] [--secs-per-row=S]\n");
}

/// Strict decimal count in [0, max]: a sign, trailing garbage or an
/// out-of-range value fails instead of being read as some other number.
bool parse_count(const std::string& s, int max, int* out) {
  std::uint64_t v = 0;
  if (!explore::detail::parse_u64(s, &v) ||
      v > static_cast<std::uint64_t>(max)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Strict positive, finite seconds: trailing garbage, a sign-only or
/// empty string, and zero, negative, infinite or NaN values fail.
bool parse_seconds(const std::string& s, double* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) != 0) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v) || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

bool parse(int argc, char** argv, Args& a) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    bool ok = true;
    if (arg == "--bench") {
      a.bench = true;
    } else if (auto v = val("n")) {
      ok = parse_count(*v, kMaxProcesses, &a.n);
    } else if (auto v2 = val("seconds")) {
      ok = parse_count(*v2, kIntMax, &a.seconds);
    } else if (auto v3 = val("clients")) {
      ok = parse_count(*v3, kIntMax, &a.clients);
    } else if (auto v4 = val("secs-per-row")) {
      ok = parse_seconds(*v4, &a.secs_per_row);
    } else if (auto v5 = val("seed")) {
      ok = explore::detail::parse_u64(*v5, &a.seed);
    } else if (auto v6 = val("out")) {
      a.out = *v6;
    } else {
      ok = false;
    }
    if (!ok) {
      usage();
      return false;
    }
  }
  if (a.n < 1 || a.clients < 1) {
    usage();
    return false;
  }
  return true;
}

runtime::KvService::Options service_options(const Args& a, int n) {
  runtime::KvService::Options so;
  so.n = n;
  so.seed = a.seed;
  return so;
}

/// One client thread's share of a closed-loop load run: alternating
/// put/get on per-client keys until the deadline, recording per-op
/// latency in microseconds.
struct LoadResult {
  std::vector<std::uint64_t> latencies_us;
  std::uint64_t failovers = 0;
  bool wedged = false;
};

LoadResult run_client(runtime::KvService& service, int client_id,
                      Clock::time_point deadline,
                      runtime::KvClient::Options copt) {
  runtime::KvClient client(service,
                           static_cast<ProcessId>(client_id % service.n()),
                           copt);
  LoadResult res;
  std::uint32_t i = 0;
  while (Clock::now() < deadline) {
    const auto key = static_cast<std::uint32_t>(client_id * 100 + (i & 3));
    const auto value = static_cast<std::uint32_t>(client_id * 100000 + i);
    const auto t0 = Clock::now();
    const std::optional<std::int64_t> r =
        (i & 1) ? client.get(key) : client.put(key, value);
    if (!r.has_value()) {
      res.wedged = true;
      break;
    }
    res.latencies_us.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count()));
    ++i;
  }
  res.failovers = client.failovers();
  return res;
}

struct RowStats {
  std::uint64_t ops = 0;
  double ops_per_sec = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t failovers = 0;
  bool wedged = false;
};

/// Drives `clients` closed-loop threads against a running service for
/// `secs` and merges their latency streams.
RowStats run_load(runtime::KvService& service, int clients, double secs,
                  runtime::KvClient::Options copt = {}) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(secs * 1e6));
  std::vector<LoadResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  const auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&service, &results, c, deadline, copt] {
      results[static_cast<std::size_t>(c)] =
          run_client(service, c, deadline, copt);
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  RowStats row;
  std::vector<std::uint64_t> all;
  for (const LoadResult& r : results) {
    all.insert(all.end(), r.latencies_us.begin(), r.latencies_us.end());
    row.failovers += r.failovers;
    row.wedged = row.wedged || r.wedged;
  }
  row.ops = all.size();
  row.ops_per_sec = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    row.p50_us = all[all.size() / 2];
    row.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return row;
}

/// Time from killing the current leader to the next successful write at
/// a surviving replica, in milliseconds. Negative on wedge.
double measure_failover(const Args& a) {
  runtime::KvService service(service_options(a, 3));
  service.start();
  runtime::KvClient warm(service, 0);
  if (!warm.put(1, 11).has_value()) {
    service.stop();
    return -1;
  }
  const ProcessId leader = service.leader_view(1) == kNoProcess
                               ? 0
                               : service.leader_view(1);
  const auto survivor =
      static_cast<ProcessId>((leader + 1) % service.n());
  runtime::KvClient client(service, survivor);
  const auto t0 = Clock::now();
  service.kill(leader);
  const std::optional<std::int64_t> r = client.put(2, 22);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  service.stop();
  return r.has_value() ? ms : -1;
}

int run_bench(const Args& a) {
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  std::FILE* out = std::fopen(a.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "wfd_serve: cannot open %s\n", a.out.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"context\": {\n"
               "    \"build\": \"%s\",\n"
               "    \"num_cpus\": %u,\n"
               "    \"clients\": %d,\n"
               "    \"secs_per_row\": %.2f,\n"
               "    \"detector_timing_ms\": {\"heartbeat_period\": %llu, "
               "\"omega_timeout\": %llu, \"omega_lease\": %llu}\n  },\n"
               "  \"rows\": [\n",
               build, std::thread::hardware_concurrency(), a.clients,
               a.secs_per_row,
               static_cast<unsigned long long>(
                   runtime::KvDetectorTiming{}.heartbeat_period),
               static_cast<unsigned long long>(
                   runtime::KvDetectorTiming{}.omega_timeout),
               static_cast<unsigned long long>(
                   runtime::KvDetectorTiming{}.omega_lease));

  bool wedged = false;
  bool first_row = true;
  const auto emit = [&](const std::string& name, int n, double drop_prob,
                        std::uint64_t delay_ms, const RowStats& row) {
    std::fprintf(
        out,
        "%s    {\"name\": \"%s\", \"n\": %d, \"transport\": \"channel\", "
        "\"drop_prob\": %.3f, \"delay_ms\": %llu, \"ops\": %llu, "
        "\"ops_per_sec\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu, "
        "\"failovers\": %llu}",
        first_row ? "" : ",\n", name.c_str(), n, drop_prob,
        static_cast<unsigned long long>(delay_ms),
        static_cast<unsigned long long>(row.ops), row.ops_per_sec,
        static_cast<unsigned long long>(row.p50_us),
        static_cast<unsigned long long>(row.p99_us),
        static_cast<unsigned long long>(row.failovers));
    first_row = false;
    wedged = wedged || row.wedged;
    std::printf("%-16s n=%d channel %8.1f ops/s  p50 %6llu us  p99 %6llu us\n",
                name.c_str(), n, row.ops_per_sec,
                static_cast<unsigned long long>(row.p50_us),
                static_cast<unsigned long long>(row.p99_us));
  };

  // Throughput/latency vs n over in-process channels.
  for (const int n : {3, 5}) {
    runtime::KvService service(service_options(a, n));
    service.start();
    const RowStats row = run_load(service, a.clients, a.secs_per_row);
    service.stop();
    emit("kv_n" + std::to_string(n), n, 0, 0, row);
  }
  // Throughput under injected loss and delay on every link. Loss is
  // injected *with retransmission* (a dropped copy arrives 20 ms late
  // instead of never): the protocol stack assumes quasi-reliable
  // channels — under final loss a dropped round-Decide is never
  // re-sent by the passive decided peers and the service stalls by
  // design — so this row models what the stack actually runs on in
  // production, a reliable transport over a lossy network. Ops still
  // stall across retransmit storms, so lossy clients get a wider
  // per-op retry budget before "wedged" is declared.
  {
    runtime::KvService::Options so = service_options(a, 3);
    so.faults.drop_prob = 0.05;
    so.faults.delay = 1;
    so.faults.retransmit = 20;
    runtime::KvService service(so);
    service.start();
    runtime::KvClient::Options copt;
    copt.attempt_timeout = 3000;
    copt.max_attempts = 10;
    const RowStats row =
        run_load(service, a.clients, a.secs_per_row, copt);
    service.stop();
    emit("kv_n3_lossy", 3, so.faults.drop_prob, so.faults.delay, row);
  }
  // Leader-kill failover: kill the emitted leader, time the next
  // successful write at a survivor (detector timeout + lease takeover +
  // one consensus round).
  const double failover_ms = measure_failover(a);
  std::fprintf(out,
               ",\n    {\"name\": \"leader_kill_failover\", \"n\": 3, "
               "\"transport\": \"channel\", \"failover_ms\": %.1f}\n  ]\n}\n",
               failover_ms);
  std::fclose(out);
  std::printf("leader_kill_failover: %.1f ms\n", failover_ms);
  std::printf("wrote %s\n", a.out.c_str());
  if (failover_ms < 0 || wedged) {
    std::fprintf(stderr, "wfd_serve: service wedged during bench\n");
    return 2;
  }
  return 0;
}

/// Timed closed-loop load with a progress line per second.
int run_timed(const Args& a) {
  runtime::KvService service(service_options(a, a.n));
  service.start();
  std::printf("serving replicated KV: n=%d transport=channel\n", a.n);
  RowStats total;
  for (int s = 0; s < a.seconds; ++s) {
    const RowStats row = run_load(service, a.clients, 1.0);
    std::printf("[%2d s] %8.1f ops/s  p50 %6llu us  p99 %6llu us  leader p%d\n",
                s + 1, row.ops_per_sec,
                static_cast<unsigned long long>(row.p50_us),
                static_cast<unsigned long long>(row.p99_us),
                service.leader_view(0));
    total.ops += row.ops;
    total.wedged = total.wedged || row.wedged;
    if (total.wedged) break;
  }
  service.stop();
  std::printf("%llu ops total\n",
              static_cast<unsigned long long>(total.ops));
  return total.wedged ? 2 : 0;
}

/// The default guided tour: a few operations, then a leader kill, then
/// proof the service still answers (and still remembers).
int run_demo(const Args& a) {
  runtime::KvService service(service_options(a, a.n));
  service.start();
  std::printf("replicated KV up: n=%d transport=channel (unmodified "
              "module stack, heartbeat Omega + phi-accrual quorums)\n",
              a.n);
  runtime::KvClient client(service, 0);
  const auto step = [&](const char* what,
                        std::optional<std::int64_t> r) -> bool {
    if (!r.has_value()) {
      std::fprintf(stderr, "%s: WEDGED\n", what);
      return false;
    }
    std::printf("%-28s -> %lld\n", what, static_cast<long long>(*r));
    return true;
  };
  if (!step("put k=1 v=41", client.put(1, 41))) return 2;
  if (!step("put k=1 v=42", client.put(1, 42))) return 2;
  if (!step("get k=1", client.get(1))) return 2;
  const ProcessId leader =
      service.leader_view(0) == kNoProcess ? 0 : service.leader_view(0);
  std::printf("killing leader p%d...\n", leader);
  service.kill(leader);
  runtime::KvClient survivor(
      service, static_cast<ProcessId>((leader + 1) % a.n));
  if (!step("put k=2 v=7 (post-kill)", survivor.put(2, 7))) return 2;
  const std::optional<std::int64_t> back = survivor.get(1);
  if (!step("get k=1 (post-kill)", back)) return 2;
  if (*back != 42) {
    std::fprintf(stderr, "DIVERGENCE: k=1 read %lld, expected 42\n",
                 static_cast<long long>(*back));
    service.stop();
    return 2;
  }
  std::printf("service survived the leader kill (%llu failovers seen)\n",
              static_cast<unsigned long long>(survivor.failovers()));
  service.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return 1;
  if (a.bench) return run_bench(a);
  if (a.seconds > 0) return run_timed(a);
  return run_demo(a);
}
