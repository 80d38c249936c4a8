// Service workloads: the replicated KV (runtime::KvService, n=3 over the
// in-process channel transport) driven through runtime::KvClient.
//
// kv_closed_n3: every session boots a fresh service and runs a fixed
// number of operations from three closed-loop clients, one per replica,
// each alternating a put and a get on its own keys.
//
// kv_failover_n3: every cycle boots a fresh service, sends requests on a
// fixed schedule (open loop, one request outstanding per client: a request
// due while the previous one is still outstanding is sent when it
// returns, and its latency still runs from its due time), and kills the
// leader at a generated offset.
//
// The traced run adds a probe thread that posts timing closures to every
// live replica (RuntimeProcess::post) and submits probe reads straight to
// the replicated object (ReplicatedObjectModule::submit), and reads the
// protocol events (RuntimeProcess::events) and the message count
// (ChannelTransport::sent) after each session.
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/kv.h"
#include "runtime/transport.h"
#include "smr/replicated_object.h"
#include "tracer.h"

namespace perfbench {
namespace {

using wfd::ProcessId;
using wfd::runtime::KvClient;
using wfd::runtime::KvService;

constexpr int kReplicas = 3;
constexpr std::uint32_t kKeysPerClient = 4;
constexpr std::uint32_t kWarmKey = 0xfffff0;
constexpr std::uint32_t kProbeKey = 0xfffff1;

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// --- Generated inputs ------------------------------------------------------

/// One client's operation stream: even slots put (key, value), odd slots
/// get `key`. Keys are the client's own; values come from the seed.
struct ClientScript {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> values;
};

ClientScript make_script(std::uint64_t seed, int client, std::size_t ops) {
  std::mt19937_64 rng(mix_seed(seed, 10 + static_cast<std::uint64_t>(client)));
  ClientScript s;
  for (std::size_t i = 0; i < ops; ++i) {
    s.keys.push_back(static_cast<std::uint32_t>(client) * 16 +
                     static_cast<std::uint32_t>(rng() % kKeysPerClient));
    s.values.push_back(static_cast<std::uint32_t>(rng() & 0x7fffffff));
  }
  return s;
}

// --- One service lifetime --------------------------------------------------

/// Per-request record kept by a client thread.
struct Sample {
  std::int64_t due_ns;
  std::int64_t done_ns;
  double latency_ms;
};

struct ClientOutcome {
  std::vector<Sample> samples;
  std::vector<double> gen_late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< Timed out or wrong result.
  std::uint64_t failovers = 0;
  std::string first_error;
};

/// Which replicas are up; written by the killer, read by the probe thread.
using Alive = std::array<std::atomic<bool>, kReplicas>;

/// Measurements probes take while clients run (traced sessions only).
struct ProbeSink {
  std::mutex mu;
  std::vector<double> post_wait_us;
  std::vector<double> submit_to_apply_us;
};

std::uint64_t applied_count(wfd::runtime::RuntimeProcess& rp) {
  auto prom = std::make_shared<std::promise<std::uint64_t>>();
  auto fut = prom->get_future();
  if (!rp.post([&rp, prom] {
        prom->set_value(
            rp.module<wfd::smr::ReplicatedObjectModule>("kv").applied_count());
      })) {
    return 0;
  }
  if (fut.wait_for(std::chrono::seconds(2)) != std::future_status::ready) {
    return 0;
  }
  return fut.get();
}

struct Session {
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::vector<Sample> samples;
  std::vector<double> gen_late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;
  std::string error;
  bool drained = true;
  // Layer figures (traced sessions; -1 = not observed).
  std::vector<double> post_wait_us;
  std::vector<double> submit_to_apply_us;
  double msgs_per_op = 0;
  double ops_per_decision = 0;
  double decisions = 0;
  double leader_changes = 0;
  double unavailable_ms = -1;
  double detect_ms = -1;
  double takeover_ms = -1;
};

struct SessionPlan {
  std::uint64_t seed = 1;
  std::size_t ops_per_client = 0;  ///< Closed loop: fixed operation count.
  // Open loop (failover) only.
  bool open_loop = false;
  double interval_ms = 10;     ///< Per-client request spacing.
  double duration_ms = 1000;   ///< Schedule length.
  double kill_at_ms = -1;      ///< Leader kill offset (< 0: no kill).
  wfd::Time attempt_timeout = 1000;
  bool traced = false;
};

void run_client(KvService& svc, int c, const SessionPlan& plan,
                const ClientScript& script, std::int64_t base_ns,
                ClientOutcome& out) {
  static const std::uint32_t put_span = Tracer::get().intern("kv.client.put");
  static const std::uint32_t get_span = Tracer::get().intern("kv.client.get");
  KvClient::Options copt;
  copt.attempt_timeout = plan.attempt_timeout;
  KvClient client(svc, static_cast<ProcessId>(c), copt);
  std::map<std::uint32_t, std::int64_t> last;  // Own keys: last put value.
  std::int64_t prev_done = base_ns;
  for (std::size_t i = 0;; ++i) {
    std::int64_t due = 0;
    if (plan.open_loop) {
      const double offset_ms =
          static_cast<double>(i) * plan.interval_ms +
          plan.interval_ms * static_cast<double>(c) / kReplicas;
      if (offset_ms >= plan.duration_ms) break;
      due = base_ns + static_cast<std::int64_t>(offset_ms * 1e6);
      const auto now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      out.gen_late_ms.push_back(
          ms_between(std::max(due, prev_done), now_ns()));
    } else {
      if (i >= plan.ops_per_client) break;
      due = now_ns();
    }
    const std::size_t slot = i % script.keys.size();
    const std::uint32_t key = script.keys[slot];
    const bool put = i % 2 == 0;
    const std::uint64_t request =
        (static_cast<std::uint64_t>(c + 1) << 40) | i;
    std::optional<std::int64_t> got;
    {
      const Span span(put ? put_span : get_span, request);
      got = put ? client.put(key, script.values[slot]) : client.get(key);
    }
    const std::int64_t done = now_ns();
    prev_done = done;
    ++out.attempted;
    std::int64_t want = -1;
    if (put) {
      want = script.values[slot];
      last[key] = want;
    } else if (auto it = last.find(key); it != last.end()) {
      want = it->second;
    }
    if (!got.has_value() || *got != want) {
      ++out.failed;
      if (out.first_error.empty()) {
        out.first_error = "client " + std::to_string(c) + " op " +
                          std::to_string(i) + (put ? " put" : " get") +
                          " key " + std::to_string(key) + ": " +
                          (got ? "got " + std::to_string(*got) : "timed out") +
                          ", want " + std::to_string(want);
      }
      continue;
    }
    out.samples.push_back(Sample{due, done, ms_between(due, done)});
  }
  out.failovers = client.failovers();
}

/// Posts timing closures and probe reads to every live replica until
/// `stop` is set.
void run_probes(KvService& svc, const Alive& alive,
                const std::atomic<bool>& stop,
                const std::shared_ptr<ProbeSink>& sink) {
  static const std::uint32_t wait_span = Tracer::get().intern("host.post_wait");
  static const std::uint32_t apply_span =
      Tracer::get().intern("smr.submit_to_apply");
  std::uint64_t tick = 0;
  while (!stop.load()) {
    for (int p = 0; p < kReplicas; ++p) {
      if (!alive[static_cast<std::size_t>(p)].load()) continue;
      wfd::runtime::RuntimeProcess& rp = svc.replica(p);
      const std::int64_t posted = now_ns();
      const bool smr = tick % 5 == 0;
      rp.post([&rp, posted, smr, sink] {
        const std::int64_t ran = now_ns();
        Tracer::get().record(wait_span, 0, posted, ran);
        {
          const std::lock_guard<std::mutex> lock(sink->mu);
          sink->post_wait_us.push_back(static_cast<double>(ran - posted) / 1e3);
        }
        if (!smr) return;
        rp.module<wfd::smr::ReplicatedObjectModule>("kv").submit(
            wfd::runtime::kv_get_cmd(kProbeKey),
            [ran, sink](std::int64_t) {
              const std::int64_t applied = now_ns();
              Tracer::get().record(apply_span, 0, ran, applied);
              const std::lock_guard<std::mutex> lock(sink->mu);
              sink->submit_to_apply_us.push_back(
                  static_cast<double>(applied - ran) / 1e3);
            });
      });
    }
    ++tick;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

KvService::Options service_options(std::uint64_t seed) {
  KvService::Options so;
  so.n = kReplicas;
  so.seed = seed;
  return so;
}

/// Boots a service and waits for its first committed reply.
std::unique_ptr<KvService> boot(std::uint64_t seed, double* setup_s) {
  const std::int64_t t0 = now_ns();
  auto svc = std::make_unique<KvService>(service_options(seed));
  svc->start();
  KvClient warm(*svc, 0);
  if (warm.put(kWarmKey, 1) != std::optional<std::int64_t>(1)) {
    throw std::runtime_error("service did not commit its first write");
  }
  *setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return svc;
}

Session run_session(const SessionPlan& plan) {
  Session s;
  reset_peak_rss();
  std::unique_ptr<KvService> svc = boot(mix_seed(plan.seed, 1), &s.setup_s);
  std::vector<ClientScript> scripts;
  const std::size_t script_len =
      plan.open_loop ? static_cast<std::size_t>(plan.duration_ms /
                                                plan.interval_ms) + 1
                     : plan.ops_per_client;
  for (int c = 0; c < kReplicas; ++c) {
    scripts.push_back(make_script(plan.seed, c, script_len));
  }
  Alive alive;
  for (auto& a : alive) a.store(true);
  std::atomic<bool> stop_probes{false};
  auto sink = std::make_shared<ProbeSink>();
  std::thread probes;
  if (plan.traced) {
    probes = std::thread(
        [&] { run_probes(*svc, alive, stop_probes, sink); });
  }

  std::vector<ClientOutcome> outcomes(kReplicas);
  const std::int64_t base = now_ns();
  std::vector<std::thread> clients;
  for (int c = 0; c < kReplicas; ++c) {
    clients.emplace_back([&, c] {
      run_client(*svc, c, plan, scripts[static_cast<std::size_t>(c)], base,
                 outcomes[static_cast<std::size_t>(c)]);
    });
  }
  ProcessId killed = wfd::kNoProcess;
  std::int64_t kill_ns = 0;
  if (plan.kill_at_ms >= 0) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            base + static_cast<std::int64_t>(plan.kill_at_ms * 1e6))));
    killed = svc->leader_view(1);
    if (killed == wfd::kNoProcess) killed = 0;
    alive[static_cast<std::size_t>(killed)].store(false);
    kill_ns = now_ns();
    svc->kill(killed);
  }
  for (auto& t : clients) t.join();
  s.wall_s = static_cast<double>(now_ns() - base) / 1e9;
  s.peak_rss_mb = peak_rss_mb();
  stop_probes.store(true);
  if (probes.joinable()) probes.join();

  for (ClientOutcome& o : outcomes) {
    s.samples.insert(s.samples.end(), o.samples.begin(), o.samples.end());
    s.gen_late_ms.insert(s.gen_late_ms.end(), o.gen_late_ms.begin(),
                         o.gen_late_ms.end());
    s.attempted += o.attempted;
    s.failed += o.failed;
    s.failovers += o.failovers;
    if (s.error.empty()) s.error = o.first_error;
  }

  // Drain: every live replica must reach the same applied count.
  std::uint64_t applied = 0;
  const std::int64_t drain_deadline = now_ns() + 5'000'000'000LL;
  while (true) {
    std::vector<std::uint64_t> counts;
    for (int p = 0; p < kReplicas; ++p) {
      if (alive[static_cast<std::size_t>(p)]) {
        counts.push_back(applied_count(svc->replica(p)));
      }
    }
    const bool equal =
        std::all_of(counts.begin(), counts.end(),
                    [&](std::uint64_t v) { return v == counts.front(); });
    applied = counts.front();
    if (equal && applied > 0) break;
    if (now_ns() > drain_deadline) {
      s.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  if (plan.traced) {
    s.post_wait_us = sink->post_wait_us;
    s.submit_to_apply_us = sink->submit_to_apply_us;
    const auto epoch_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              svc->cluster().epoch().time_since_epoch())
                              .count();
    // Event stamps are whole host milliseconds since the cluster epoch;
    // an event stamped t happened in [t, t+1), so take its midpoint.
    const double kill_ms = ms_between(epoch_ns, kill_ns);
    double decisions = 0;
    double leader_events = 0;
    for (int p = 0; p < kReplicas; ++p) {
      if (!alive[static_cast<std::size_t>(p)]) continue;
      double p_decisions = 0;
      double p_leader_events = 0;
      double new_leader_at = -1;
      for (const auto& e : svc->replica(p).events()) {
        const double at = static_cast<double>(e.at) + 0.5;
        if (e.kind == "decide") {
          ++p_decisions;
          if (new_leader_at >= 0 && at >= new_leader_at &&
              (s.takeover_ms < 0 || at - kill_ms < s.takeover_ms)) {
            s.takeover_ms = at - kill_ms;
          }
        } else if (e.kind == "omega-leader") {
          ++p_leader_events;
          if (killed != wfd::kNoProcess && new_leader_at < 0 &&
              at >= kill_ms && e.value != killed) {
            new_leader_at = at;
            if (s.detect_ms < 0 || at - kill_ms < s.detect_ms) {
              s.detect_ms = at - kill_ms;
            }
          }
        }
      }
      decisions = std::max(decisions, p_decisions);
      leader_events = std::max(leader_events, p_leader_events);
    }
    s.decisions = decisions;
    s.leader_changes = leader_events;
    s.ops_per_decision = decisions > 0 ? static_cast<double>(applied) / decisions : 0;
    if (auto* ch = dynamic_cast<wfd::runtime::ChannelTransport*>(
            &svc->cluster().transport())) {
      s.msgs_per_op = applied > 0 ? static_cast<double>(ch->sent()) /
                                        static_cast<double>(applied)
                                  : 0;
    }
  }
  if (kill_ns != 0) {
    for (const Sample& x : s.samples) {
      if (x.due_ns < kill_ns) continue;
      const double gap = ms_between(kill_ns, x.done_ns);
      if (s.unavailable_ms < 0 || gap < s.unavailable_ms) s.unavailable_ms = gap;
    }
  }
  svc->stop();
  return s;
}

// --- Aggregation -----------------------------------------------------------

/// Last-tenth p50 over first-tenth p50, ops in completion order.
double p50_growth(std::vector<Sample> samples) {
  if (samples.size() < 20) return 0;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_ns < b.done_ns; });
  const std::size_t tenth = samples.size() / 10;
  std::vector<double> head;
  std::vector<double> tail;
  for (std::size_t i = 0; i < tenth; ++i) {
    head.push_back(samples[i].latency_ms);
    tail.push_back(samples[samples.size() - 1 - i].latency_ms);
  }
  const double h = median(head);
  return h > 0 ? median(tail) / h : 0;
}

/// Median of f over sessions, skipping sessions where f is negative (not
/// observed); 0 when none observed it.
template <typename F>
double median_of(const std::vector<Session>& ss, F f) {
  std::vector<double> v;
  for (const Session& s : ss) {
    const double x = f(s);
    if (x >= 0) v.push_back(x);
  }
  return median(v);
}

Result run_sessions(const RunOptions& opt, SessionPlan plan) {
  Result res;
  const KvService::Options so = service_options(1);
  res.context.emplace_back(
      "kv_detector_timing",
      "heartbeat_period=" + std::to_string(so.timing.heartbeat_period) +
          "ms omega_timeout=" + std::to_string(so.timing.omega_timeout) +
          "ms omega_lease=" + std::to_string(so.timing.omega_lease) +
          "ms phi_threshold=" + std::to_string(so.timing.phi_threshold));

  // Extra boots so set-up time is a median over several service lives.
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    double setup = 0;
    auto svc = boot(mix_seed(opt.seed, 1000 + static_cast<std::uint64_t>(i)),
                    &setup);
    svc->stop();
    setups.push_back(setup);
  }

  // The traced run alternates untraced and traced sessions; the untraced
  // ones give the tracing overhead.
  std::vector<Session> plain;
  std::vector<Session> traced;
  std::mt19937_64 kill_rng(mix_seed(opt.seed, 2));
  const double kill_base = plan.kill_at_ms;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0;
       traced.size() < (opt.trace ? 1U : 0U) || plain.empty() ||
       static_cast<double>(now_ns() - start) / 1e9 < opt.seconds;
       ++i) {
    plan.seed = mix_seed(opt.seed, 100 + i);
    if (kill_base >= 0) {
      plan.kill_at_ms = kill_base + static_cast<double>(kill_rng() % 200);
    }
    plan.traced = opt.trace && i % 2 == 1;
    Tracer::get().enable(plan.traced);
    Session s = run_session(plan);
    Tracer::get().enable(false);
    setups.push_back(s.setup_s);
    (plan.traced ? traced : plain).push_back(std::move(s));
  }

  std::string error;
  bool drained = true;
  for (const auto* group : {&plain, &traced}) {
    for (const Session& s : *group) {
      res.attempted += s.attempted;
      res.failed += s.failed;
      if (error.empty()) error = s.error;
      drained = drained && s.drained;
    }
  }
  res.gate("gets_return_last_put", error.empty(),
           error.empty() ? "every operation answered correctly" : error);
  res.gate("replicas_converge", drained,
           drained ? "live replicas report equal applied_count()"
                   : "live replicas still differ after 5 s");

  const std::vector<Session>& measured = opt.trace ? traced : plain;
  std::vector<double> lat;
  for (const Session& s : measured) {
    for (const Sample& x : s.samples) lat.push_back(x.latency_ms);
  }
  res.context.emplace_back("latency_samples", std::to_string(lat.size()));
  std::string quantiles;
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    quantiles += (quantiles.empty() ? "" : " ") + std::to_string(q) + ":" +
                 std::to_string(percentile(lat, q));
  }
  res.context.emplace_back("latency_quantiles_ms", quantiles);
  res.context.emplace_back("sessions", std::to_string(measured.size()));
  const double ops_per_s = median_of(measured, [](const Session& s) {
    return static_cast<double>(s.samples.size()) / s.wall_s;
  });
  if (!opt.trace) {
    res.metric("wall_s", median_of(measured, [](const Session& s) { return s.wall_s; }));
    res.metric("setup_s", median(setups));
    res.metric("peak_rss_mb",
               median_of(measured, [](const Session& s) { return s.peak_rss_mb; }));
    res.metric("ops_per_s", ops_per_s);
    // A closed session has thousands of samples, so each session gets its
    // own percentiles and the run reports their median; a failover cycle
    // has too few for a p99, so its percentiles pool the whole run.
    for (const double q : {0.50, 0.99}) {
      const double v =
          plan.open_loop ? percentile(lat, q)
                         : median_of(measured, [q](const Session& s) {
                             std::vector<double> l;
                             for (const Sample& x : s.samples) l.push_back(x.latency_ms);
                             return percentile(l, q);
                           });
      res.metric(q == 0.50 ? "p50_ms" : "p99_ms", v);
    }
    return res;
  }

  std::vector<double> post_wait;
  std::vector<double> to_apply;
  std::vector<double> late;
  for (const Session& s : traced) {
    post_wait.insert(post_wait.end(), s.post_wait_us.begin(), s.post_wait_us.end());
    to_apply.insert(to_apply.end(), s.submit_to_apply_us.begin(),
                    s.submit_to_apply_us.end());
    late.insert(late.end(), s.gen_late_ms.begin(), s.gen_late_ms.end());
  }
  res.metric("host.post_wait_us.p50", percentile(post_wait, 0.50));
  res.metric("host.post_wait_us.p99", percentile(post_wait, 0.99));
  res.metric("smr.submit_to_apply_us", percentile(to_apply, 0.50));
  res.metric("kv.client.failovers",
             median_of(traced, [](const Session& s) {
               return static_cast<double>(s.failovers);
             }));
  res.metric("kv.p50_growth",
             median_of(traced, [](const Session& s) { return p50_growth(s.samples); }));
  res.metric("kv.unavailable_ms",
             median_of(traced, [](const Session& s) { return s.unavailable_ms; }));
  res.metric("kv.latency_samples", static_cast<double>(lat.size()));
  res.metric("abcast.ops_per_decision",
             median_of(traced, [](const Session& s) { return s.ops_per_decision; }));
  res.metric("consensus.decisions",
             median_of(traced, [](const Session& s) { return s.decisions; }));
  res.metric("transport.msgs_per_op",
             median_of(traced, [](const Session& s) { return s.msgs_per_op; }));
  res.metric("fd.detect_ms",
             median_of(traced, [](const Session& s) { return s.detect_ms; }));
  res.metric("fd.takeover_ms",
             median_of(traced, [](const Session& s) { return s.takeover_ms; }));
  res.metric("fd.leader_changes",
             median_of(traced, [](const Session& s) { return s.leader_changes; }));
  res.metric("gen.late_ms", percentile(late, 0.99));
  // Tracing overhead: the traced sessions against the untraced ones.
  if (plan.open_loop) {
    std::vector<double> base_lat;
    for (const Session& s : plain) {
      for (const Sample& x : s.samples) base_lat.push_back(x.latency_ms);
    }
    const double b = percentile(base_lat, 0.5);
    res.metric("trace.overhead_pct",
               b > 0 ? (percentile(lat, 0.5) / b - 1.0) * 100.0 : 0);
  } else {
    const double b = median_of(plain, [](const Session& s) {
      return static_cast<double>(s.samples.size()) / s.wall_s;
    });
    res.metric("trace.overhead_pct",
               ops_per_s > 0 ? (b / ops_per_s - 1.0) * 100.0 : 0);
  }
  return res;
}

}  // namespace

Result run_kv_closed(const RunOptions& opt) {
  SessionPlan plan;
  plan.ops_per_client = opt.tiny ? 100 : 2000;
  return run_sessions(opt, plan);
}

Result run_kv_failover(const RunOptions& opt) {
  SessionPlan plan;
  plan.open_loop = true;
  plan.interval_ms = 10;
  plan.duration_ms = opt.tiny ? 500 : 1000;
  plan.kill_at_ms = opt.tiny ? 150 : 300;
  // Above the ~60-90 ms a leader change takes, so only a request caught at
  // the killed replica times out, and its stall stays close to the others'.
  plan.attempt_timeout = 100;
  return run_sessions(opt, plan);
}

}  // namespace perfbench
