// A replicated key-value service on the runtime host: the paper's
// Corollary 3 ("by using consensus we can implement any object") made
// operational. Every replica hosts the *unmodified* protocol stack —
// ReplicatedObjectModule over AtomicBroadcastModule over UrbModule over
// per-round (Omega, Sigma) consensus — with the implementable detectors
// (HeartbeatOmegaModule for Omega, PhiAccrualModule for Sigma) merged
// into the host's detector sample, so the exact module binaries the
// explorer model-checks now serve real clients under load.
//
// Commands are packed into the object's int64 command word:
//   bit 62        op   (0 = get, 1 = put)
//   bits 32..55   key  (24 bits)
//   bits 0..31    value
// apply() returns the value read (get) or the value written (put), so a
// client can check read-your-writes directly against the result stream.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fd/heartbeat_omega.h"
#include "fd/phi_accrual.h"
#include "runtime/cluster.h"
#include "smr/replicated_object.h"

namespace wfd::runtime {

// --- Command word packing (shared by service, clients and tests).

constexpr std::int64_t kKvOpPut = std::int64_t{1} << 62;

constexpr std::int64_t kv_put_cmd(std::uint32_t key, std::uint32_t value) {
  return kKvOpPut | (static_cast<std::int64_t>(key & 0xffffff) << 32) |
         static_cast<std::int64_t>(value);
}

constexpr std::int64_t kv_get_cmd(std::uint32_t key) {
  return static_cast<std::int64_t>(key & 0xffffff) << 32;
}

/// The deterministic transition function every replica installs; state
/// is the captured map. Exposed so the simulator-side equal-decisions
/// test can install the identical function.
smr::ReplicatedObjectModule::ApplyFn make_kv_apply();

/// Per-replica detector timing, in host milliseconds.
struct KvDetectorTiming {
  Time heartbeat_period = 10;
  Time omega_timeout = 60;
  Time omega_lease = 120;
  double phi_threshold = 4.0;
};

class KvService {
 public:
  struct Options {
    int n = 3;
    std::uint64_t seed = 1;
    KvDetectorTiming timing;
    LinkFaults faults;
  };

  explicit KvService(Options opt);

  void start() { cluster_->start(); }
  void stop() { cluster_->stop(); }
  void kill(ProcessId p) { cluster_->kill(p); }

  [[nodiscard]] int n() const { return cluster_->n(); }
  [[nodiscard]] RuntimeCluster& cluster() { return *cluster_; }
  [[nodiscard]] RuntimeProcess& replica(ProcessId p) {
    return cluster_->process(p);
  }

  /// The leader replica p currently believes in (its HeartbeatOmega
  /// output); thread-safe snapshot via the replica's event log.
  [[nodiscard]] ProcessId leader_view(ProcessId p);

 private:
  struct ReplicaWiring {
    std::unique_ptr<sim::MergedFdSource> merged;
  };

  std::vector<ReplicaWiring> wiring_;
  std::unique_ptr<RuntimeCluster> cluster_;
};

/// A closed-loop client: one outstanding command at a time, submitted to
/// a replica's loop thread, with timeout + failover to the next replica.
/// Each client must be used from a single thread.
class KvClient {
 public:
  struct Options {
    /// Per-attempt wait before failing over to the next replica.
    Time attempt_timeout = 1000;
    /// Attempts before giving up (>= n covers one full rotation).
    int max_attempts = 6;
  };

  KvClient(KvService& service, ProcessId preferred, Options opt);
  KvClient(KvService& service, ProcessId preferred)
      : KvClient(service, preferred, Options{}) {}

  /// Returns the applied result, or nullopt when every attempt timed
  /// out (service wedged longer than attempt_timeout * max_attempts).
  std::optional<std::int64_t> put(std::uint32_t key, std::uint32_t value);
  std::optional<std::int64_t> get(std::uint32_t key);

  /// Completed operations and failover count, for bench/soak reporting.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }

 private:
  std::optional<std::int64_t> execute(std::int64_t cmd);

  KvService& service_;
  ProcessId target_;
  Options opt_;
  std::uint64_t ops_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace wfd::runtime
