// The runtime host: one thread per process, running unmodified Module
// instances over a ChannelTransport.
//
// `runtime::Host` — the host-facing surface a Module actually needs
// (deliver/tick/send/query-FD) — *is* sim::ModuleHost: the seam was
// extracted next to ModuleTransport precisely so this file only has to
// answer the environment half (identity, real time, channels, the
// implementable detector) while the container half (dynamic module
// creation, pre-existence buffering) is shared with the simulator
// verbatim. DESIGN.md §11 documents the contract.
//
// Execution model per process: a single loop thread owns every module.
// Inbound wire messages and posted client closures land in a
// mutex-guarded inbox and are drained by the loop; each delivered
// message is followed by a module tick and preceded by a fresh detector
// sample — the exact shape of one simulator step, which is what makes
// the equal-decisions test (sim vs runtime on the same scripted
// workload) meaningful. Between work, a periodic tick every kTickMs of
// the monotonic clock drives timeouts, heartbeats and consensus retries.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fd/values.h"
#include "runtime/transport.h"
#include "sim/module.h"

namespace wfd::runtime {

/// The host interface protocol modules are written against. See
/// sim::ModuleHost for the surface; this alias is the runtime-side name.
using Host = sim::ModuleHost;

/// One emitted protocol event (the runtime's analogue of a sim::Trace
/// line): decision values, leader changes, ...
struct TraceEvent {
  Time at = 0;
  std::string kind;
  std::int64_t value = 0;
};

class RuntimeProcess final : public Host {
 public:
  using Clock = std::chrono::steady_clock;

  /// Milliseconds between periodic module ticks.
  static constexpr Time kTickMs = 1;

  struct Options {
    std::uint64_t seed = 1;
  };

  /// The process does not own the transport; the caller (RuntimeCluster)
  /// must keep both alive until every loop thread has stopped.
  RuntimeProcess(ProcessId self, int n, ChannelTransport& transport,
                 Clock::time_point epoch, Options opt);
  ~RuntimeProcess() override;

  /// Wire the detector this host's fd_sample() reports — typically a
  /// MergedFdSource over implementable detector modules added to this
  /// same host. Must be called before start(); pass nullptr for an empty
  /// sample. The source is read on the loop thread only.
  void set_detector(const sim::FdSource* source) { fd_source_ = source; }

  /// Spawn the loop thread; modules start (and may add further modules)
  /// on it.
  void start();

  /// Graceful stop: drain work already queued, then join the thread.
  void stop();

  /// Crash: detach from the transport and abandon queued work — the
  /// model's crash semantics (a killed process takes no further steps;
  /// its in-flight traffic is lost).
  void kill();

  /// Run fn on the loop thread (thread-safe); the only correct way to
  /// touch modules from outside, e.g. ReplicatedObjectModule::submit.
  /// Returns false (fn discarded) when the process is down.
  bool post(std::function<void()> fn);

  [[nodiscard]] bool running() const;

  /// Copy of the events emitted so far (thread-safe).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  // --- Host environment (valid on the loop thread).
  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] Time now() const override;
  [[nodiscard]] const fd::FdValue& fd_sample() const override {
    return fd_cache_;
  }
  void module_out(const std::string& module, ProcessId to,
                  sim::PayloadPtr payload) override;
  void module_broadcast(const std::string& module, sim::PayloadPtr payload,
                        bool include_self) override;
  void emit_event(const std::string& kind, std::int64_t value) override;
  [[nodiscard]] Rng& host_rng() override { return rng_; }

 private:
  enum class State { kNew, kRunning, kStopping, kKilled, kDone };

  void loop();
  void enqueue(WireMessage msg);
  void refresh_fd();

  ProcessId self_;
  int n_;
  ChannelTransport& transport_;
  Clock::time_point epoch_;
  Rng rng_;
  const sim::FdSource* fd_source_ = nullptr;
  fd::FdValue fd_cache_;  ///< Loop thread only.

  mutable std::mutex mu_;
  std::condition_variable cv_;
  State state_ = State::kNew;
  std::vector<WireMessage> inbox_;
  std::vector<std::function<void()>> tasks_;
  std::vector<TraceEvent> events_;
  std::thread thread_;
};

}  // namespace wfd::runtime
