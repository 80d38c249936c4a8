#include "fd/heartbeat_omega.h"

#include <algorithm>
#include <string_view>

#include "common/check.h"

namespace wfd::fd {

// Heartbeat and lease-claim payloads. Both handlers read the receiver's
// clock (receipt time becomes the peer's liveness evidence), so neither
// is tick-insensitive and no commutativity beyond the explorer's
// equal-content rule is claimed.
struct HeartbeatOmegaModule::Beat final : sim::Payload {
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "beat");
  }
  [[nodiscard]] std::string_view kind() const override { return "hb.beat"; }
};

struct HeartbeatOmegaModule::Claim final : sim::Payload {
  explicit Claim(Time u) : until(u) {}
  Time until;  ///< Absolute host time; sim and runtime clocks are global.
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "claim");
    enc.field("until", until);
  }
  [[nodiscard]] std::string_view kind() const override { return "hb.claim"; }
};

HeartbeatOmegaModule::HeartbeatOmegaModule(Options opt) : opt_(opt) {
  WFD_CHECK(opt_.period > 0);
  WFD_CHECK(opt_.timeout > 0);
  WFD_CHECK(opt_.lease > 0);
}

void HeartbeatOmegaModule::on_start() {
  self_id_ = self();
  n_cached_ = n();
  const Time t = now();
  observed_ = t;
  last_heard_.assign(static_cast<std::size_t>(n_cached_), t);
  timeout_.assign(static_cast<std::size_t>(n_cached_), opt_.timeout);
  suspected_.assign(static_cast<std::size_t>(n_cached_), false);
  next_beat_ = t + opt_.period;
  broadcast(sim::make_payload<Beat>(), /*include_self=*/false);
  set_emitted(candidate());
}

void HeartbeatOmegaModule::on_message(ProcessId from, const sim::Payload& msg) {
  const Time t = now();
  observed_ = std::max(observed_, t);
  if (from < 0 || from >= n_cached_) return;
  const auto q = static_cast<std::size_t>(from);
  if (sim::payload_cast<Beat>(msg) != nullptr) {
    if (suspected_[q]) {
      // False suspicion: the peer is alive. Back off its timeout so that
      // after GST the (bounded) delay is eventually accommodated.
      suspected_[q] = false;
      timeout_[q] *= 2;
    }
    last_heard_[q] = t;
    return;
  }
  if (const auto* claim = sim::payload_cast<Claim>(msg)) {
    last_heard_[q] = t;  // A claim is liveness evidence too.
    if (suspected_[q]) {
      suspected_[q] = false;
      timeout_[q] *= 2;
    }
    // Accept the lease only from our own current candidate: a deposed
    // leader keeps claiming until it finally suspects the smaller id,
    // but nobody who trusts the smaller id follows it.
    if (from == candidate() && claim->until > t) {
      lease_holder_ = from;
      lease_until_ = claim->until;
      set_emitted(from);
    }
    return;
  }
}

void HeartbeatOmegaModule::on_tick() {
  const Time t = now();
  observed_ = std::max(observed_, t);
  if (t >= next_beat_) {
    broadcast(sim::make_payload<Beat>(), /*include_self=*/false);
    next_beat_ = t + opt_.period;
  }
  refresh_suspicions(t);
  const ProcessId cand = candidate();
  if (cand == self_id_) {
    // Claim (or refresh, once less than half the lease remains) our own
    // leadership lease.
    if (lease_holder_ != self_id_ || lease_until_ <= t + opt_.lease / 2) {
      lease_holder_ = self_id_;
      lease_until_ = t + opt_.lease;
      broadcast(sim::make_payload<Claim>(lease_until_),
                /*include_self=*/false);
    }
    set_emitted(self_id_);
    return;
  }
  // Follower: honour a fresh lease, else fall back to the local candidate.
  if (lease_holder_ != kNoProcess && lease_until_ > t &&
      lease_holder_ != self_id_ && !suspected_[static_cast<std::size_t>(
                                       lease_holder_)]) {
    set_emitted(lease_holder_);
  } else {
    set_emitted(cand);
  }
}

FdValue HeartbeatOmegaModule::fd_value() const {
  FdValue v;
  v.omega = emitted_ == kNoProcess ? self_id_ : emitted_;
  v.suspected = suspected();
  return v;
}

ProcessSet HeartbeatOmegaModule::suspected() const {
  ProcessSet s;
  for (std::size_t q = 0; q < suspected_.size(); ++q) {
    if (suspected_[q]) s.insert(static_cast<ProcessId>(q));
  }
  return s;
}

ProcessId HeartbeatOmegaModule::candidate() const {
  for (ProcessId p = 0; p < n_cached_; ++p) {
    if (p == self_id_ || !suspected_[static_cast<std::size_t>(p)]) return p;
  }
  return self_id_;
}

void HeartbeatOmegaModule::refresh_suspicions(Time t) {
  for (std::size_t q = 0; q < suspected_.size(); ++q) {
    if (static_cast<ProcessId>(q) == self_id_ || suspected_[q]) continue;
    if (t - last_heard_[q] > timeout_[q]) {
      suspected_[q] = true;
      ++suspicions_;
      if (lease_holder_ == static_cast<ProcessId>(q)) {
        // Do not wait out a dead leader's lease.
        lease_holder_ = kNoProcess;
        lease_until_ = 0;
      }
    }
  }
}

void HeartbeatOmegaModule::set_emitted(ProcessId leader) {
  if (leader == emitted_) return;
  emitted_ = leader;
  ++changes_;
  emit("omega-leader", leader);
}

void HeartbeatOmegaModule::encode_state(sim::StateEncoder& enc) const {
  // Deadlines are encoded relative to the latest host time this module
  // observed, so states reached at different absolute times but with the
  // same pending futures fingerprint identically.
  enc.field("next-beat", next_beat_ - observed_);
  for (std::size_t q = 0; q < suspected_.size(); ++q) {
    enc.push("peer", q);
    enc.field("heard", observed_ - last_heard_[q]);
    enc.field("timeout", timeout_[q]);
    enc.field("suspected", suspected_[q]);
    enc.pop();
  }
  enc.field("lease-holder", lease_holder_);
  enc.field("lease-left",
            lease_until_ > observed_ ? lease_until_ - observed_ : Time{0});
  enc.field("emitted", emitted_);
}

}  // namespace wfd::fd
