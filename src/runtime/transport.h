// Real channels for the runtime host.
//
// ChannelTransport moves ModuleEnvelope payloads between process
// threads. The quasi-reliable channels of the paper's model (no
// duplication, no corruption, messages between correct processes
// eventually arrive) are the spec; it implements them with mutex-guarded
// direct delivery into the receiver's inbox, optionally degraded by
// injected drop probability and delivery delay — the knobs the runtime
// bench uses for its lossy-link rows. Payloads are immutable (PayloadPtr
// is shared_ptr<const Payload>), so crossing threads by pointer is safe.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/payload.h"

namespace wfd::runtime {

/// One message on the wire: a module envelope from one process to
/// another.
struct WireMessage {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  sim::PayloadPtr payload;
};

/// Fault injection knobs of the channel transport.
struct LinkFaults {
  /// Probability in [0,1] that a message is dropped.
  double drop_prob = 0.0;
  /// Fixed extra delivery delay in host time units (ms). Delayed
  /// delivery preserves per-link FIFO order.
  Time delay = 0;
  /// When > 0, a dropped message is retransmitted: it is delivered
  /// after this many extra ms instead of vanishing — the contract a
  /// reliable transport (TCP) gives a protocol stack over a lossy
  /// network, where loss manifests as delay. When 0, drops are final;
  /// note the protocol stack assumes quasi-reliable channels, so
  /// sustained final loss can stall it by design (a round's Decide
  /// that never arrives is never re-sent by a passive decided peer).
  Time retransmit = 0;
  std::uint64_t seed = 1;
};

/// In-process transport: direct hand-off into the receiver's sink under
/// a mutex. With a nonzero delay a dispatcher thread holds messages in a
/// deadline queue; with only drop_prob there is no extra thread.
class ChannelTransport {
 public:
  /// Receiver callback; invoked on the sender's thread or the
  /// dispatcher thread — it must be thread safe (RuntimeProcess's inbox
  /// enqueue is).
  using Sink = std::function<void(WireMessage)>;

  ChannelTransport() : ChannelTransport(LinkFaults{}) {}
  explicit ChannelTransport(LinkFaults faults);
  ~ChannelTransport();

  /// Register the receiver for process p. Must happen before any peer
  /// sends to p.
  void attach(ProcessId p, Sink sink);

  /// Remove p's receiver; subsequent traffic to p is dropped silently
  /// (the crashed-process semantics of the model).
  void detach(ProcessId p);

  /// Thread-safe send. Messages to detached or never-attached processes
  /// vanish.
  void send(WireMessage msg);

  /// Stop the dispatcher; no sinks fire afterwards.
  void shutdown();

  [[nodiscard]] std::uint64_t sent() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;  ///< Tie-break: FIFO among equal deadlines.
    WireMessage msg;
    bool operator>(const Delayed& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  void deliver(const WireMessage& msg);
  void dispatcher_loop();

  LinkFaults faults_;
  mutable std::mutex mu_;
  std::map<ProcessId, Sink> sinks_;
  Rng rng_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  bool down_ = false;

  // Delay machinery (live when faults_.delay > 0 or retransmit > 0).
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>> heap_;
  std::uint64_t delay_seq_ = 0;
  std::condition_variable cv_;
  std::thread dispatcher_;
};

}  // namespace wfd::runtime
