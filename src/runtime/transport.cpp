#include "runtime/transport.h"

#include <utility>

namespace wfd::runtime {

ChannelTransport::ChannelTransport(LinkFaults faults)
    : faults_(faults), rng_(faults.seed == 0 ? 1 : faults.seed) {
  if (faults_.delay > 0 || faults_.retransmit > 0) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }
}

ChannelTransport::~ChannelTransport() { shutdown(); }

void ChannelTransport::attach(ProcessId p, Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_[p] = std::move(sink);
}

void ChannelTransport::detach(ProcessId p) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.erase(p);
}

void ChannelTransport::send(WireMessage msg) {
  std::unique_lock<std::mutex> lock(mu_);
  if (down_) return;
  ++sent_;
  Time extra = 0;
  if (faults_.drop_prob > 0.0) {
    // Bernoulli draw with 1e6 resolution; Rng::chance(num, den).
    const auto num =
        static_cast<std::uint64_t>(faults_.drop_prob * 1e6);
    if (rng_.chance(num, 1000000)) {
      ++dropped_;
      if (faults_.retransmit == 0) return;  // Final loss.
      // Retransmitted after a timeout, like TCP under packet loss.
      // A single extra round keeps the cost model simple (the first
      // copy was lost; the retransmission arrives).
      extra = faults_.retransmit;
    }
  }
  if (faults_.delay > 0 || extra > 0) {
    heap_.push(Delayed{std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(faults_.delay + extra),
                       delay_seq_++, std::move(msg)});
    cv_.notify_one();
    return;
  }
  // Direct hand-off: look up the sink under the lock, call it outside so
  // a sink that sends (none do today) cannot deadlock.
  auto it = sinks_.find(msg.to);
  if (it == sinks_.end()) return;
  Sink sink = it->second;
  lock.unlock();
  sink(std::move(msg));
}

void ChannelTransport::deliver(const WireMessage& msg) {
  Sink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sinks_.find(msg.to);
    if (it == sinks_.end()) return;
    sink = it->second;
  }
  sink(msg);
}

void ChannelTransport::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (down_) return;
    if (heap_.empty()) {
      cv_.wait(lock, [this] { return down_ || !heap_.empty(); });
      continue;
    }
    const auto due = heap_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    WireMessage msg = heap_.top().msg;
    heap_.pop();
    lock.unlock();
    deliver(msg);
    lock.lock();
  }
}

void ChannelTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (down_) return;
    down_ = true;
    sinks_.clear();
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::uint64_t ChannelTransport::sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sent_;
}

std::uint64_t ChannelTransport::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace wfd::runtime
