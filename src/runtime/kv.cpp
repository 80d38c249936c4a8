#include "runtime/kv.h"

#include <chrono>
#include <future>
#include <map>
#include <utility>

#include "common/check.h"

namespace wfd::runtime {

smr::ReplicatedObjectModule::ApplyFn make_kv_apply() {
  // The map lives in the closure: one independent copy per replica,
  // driven to the same state by the common total order.
  auto state = std::make_shared<std::map<std::uint32_t, std::int64_t>>();
  return [state](std::int64_t cmd) -> std::int64_t {
    const auto key = static_cast<std::uint32_t>((cmd >> 32) & 0xffffff);
    if ((cmd & kKvOpPut) != 0) {
      const auto value = static_cast<std::int64_t>(
          static_cast<std::uint32_t>(cmd & 0xffffffff));
      (*state)[key] = value;
      return value;
    }
    auto it = state->find(key);
    return it == state->end() ? -1 : it->second;
  };
}

KvService::KvService(Options opt) {
  wiring_.resize(static_cast<std::size_t>(opt.n));
  RuntimeCluster::Options copt;
  copt.n = opt.n;
  copt.seed = opt.seed;
  copt.faults = opt.faults;
  const KvDetectorTiming timing = opt.timing;
  auto factory = [this, timing](RuntimeProcess& host) {
    fd::HeartbeatOmegaModule::Options oopt;
    oopt.period = timing.heartbeat_period;
    oopt.timeout = timing.omega_timeout;
    oopt.lease = timing.omega_lease;
    auto& omega =
        host.add_module<fd::HeartbeatOmegaModule>("fd.omega", oopt);
    fd::PhiAccrualModule::Options popt;
    popt.period = timing.heartbeat_period;
    popt.threshold = timing.phi_threshold;
    auto& phi = host.add_module<fd::PhiAccrualModule>("fd.phi", popt);
    // Omega from the lease detector, Sigma (and the suspicion list)
    // from phi-accrual: together the (Omega, Sigma) sample every
    // dynamically spawned consensus round reads through fd_sample().
    auto& w = wiring_[static_cast<std::size_t>(host.self())];
    w.merged = std::make_unique<sim::MergedFdSource>(&omega, &phi);
    host.set_detector(w.merged.get());
    host.add_module<smr::ReplicatedObjectModule>("kv", make_kv_apply());
  };
  cluster_ = std::make_unique<RuntimeCluster>(copt, std::move(factory));
}

ProcessId KvService::leader_view(ProcessId p) {
  ProcessId leader = kNoProcess;
  for (const TraceEvent& e : replica(p).events()) {
    if (e.kind == "omega-leader") leader = static_cast<ProcessId>(e.value);
  }
  return leader;
}

KvClient::KvClient(KvService& service, ProcessId preferred, Options opt)
    : service_(service), target_(preferred), opt_(opt) {
  WFD_CHECK(target_ >= 0 && target_ < service_.n());
}

std::optional<std::int64_t> KvClient::put(std::uint32_t key,
                                          std::uint32_t value) {
  return execute(kv_put_cmd(key, value));
}

std::optional<std::int64_t> KvClient::get(std::uint32_t key) {
  return execute(kv_get_cmd(key));
}

std::optional<std::int64_t> KvClient::execute(std::int64_t cmd) {
  for (int attempt = 0; attempt < opt_.max_attempts; ++attempt) {
    // The promise outlives a timed-out attempt: the replica may still
    // apply the command and resolve the callback later, harmlessly.
    auto prom = std::make_shared<std::promise<std::int64_t>>();
    auto fut = prom->get_future();
    RuntimeProcess& replica = service_.replica(target_);
    const bool posted = replica.post([&replica, cmd, prom] {
      replica.module<smr::ReplicatedObjectModule>("kv").submit(
          cmd, [prom](std::int64_t result) { prom->set_value(result); });
    });
    if (posted &&
        fut.wait_for(std::chrono::milliseconds(opt_.attempt_timeout)) ==
            std::future_status::ready) {
      ++ops_;
      return fut.get();
    }
    // Dead or wedged replica: fail over. A timed-out *put* may still
    // commit; re-submitting it is idempotent (same key, same value).
    target_ = static_cast<ProcessId>((target_ + 1) % service_.n());
    ++failovers_;
  }
  return std::nullopt;
}

}  // namespace wfd::runtime
