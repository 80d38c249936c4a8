#include "runtime/host.h"

#include <utility>

#include "common/check.h"

namespace wfd::runtime {

RuntimeProcess::RuntimeProcess(ProcessId self, int n,
                               ChannelTransport& transport,
                               Clock::time_point epoch, Options opt)
    : self_(self),
      n_(n),
      transport_(transport),
      epoch_(epoch),
      rng_(opt.seed + static_cast<std::uint64_t>(self) * 0x9e3779b97f4a7c15ULL) {}

RuntimeProcess::~RuntimeProcess() {
  kill();
}

Time RuntimeProcess::now() const {
  const auto elapsed = Clock::now() - epoch_;
  return static_cast<Time>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
}

void RuntimeProcess::start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    WFD_CHECK_MSG(state_ == State::kNew, "RuntimeProcess started twice");
    state_ = State::kRunning;
  }
  transport_.attach(self_, [this](WireMessage m) { enqueue(std::move(m)); });
  thread_ = std::thread([this] { loop(); });
}

void RuntimeProcess::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kRunning) return;
    state_ = State::kStopping;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  transport_.detach(self_);
}

void RuntimeProcess::kill() {
  transport_.detach(self_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kRunning && state_ != State::kStopping) return;
    state_ = State::kKilled;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool RuntimeProcess::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kRunning) return false;
    tasks_.push_back(std::move(fn));
  }
  cv_.notify_all();
  return true;
}

bool RuntimeProcess::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == State::kRunning;
}

std::vector<TraceEvent> RuntimeProcess::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void RuntimeProcess::enqueue(WireMessage msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kRunning && state_ != State::kStopping) return;
    inbox_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

void RuntimeProcess::refresh_fd() {
  fd_cache_ = fd_source_ != nullptr ? fd_source_->fd_value() : fd::FdValue{};
}

void RuntimeProcess::module_out(const std::string& module, ProcessId to,
                                sim::PayloadPtr payload) {
  transport_.send(WireMessage{
      self_, to, sim::make_payload<sim::ModuleEnvelope>(module,
                                                        std::move(payload))});
}

void RuntimeProcess::module_broadcast(const std::string& module,
                                      sim::PayloadPtr payload,
                                      bool include_self) {
  // One shared envelope allocation for the whole broadcast, as in the
  // simulator host. Self-delivery goes through the transport like any
  // other message — never inline.
  const sim::PayloadPtr env =
      sim::make_payload<sim::ModuleEnvelope>(module, std::move(payload));
  for (ProcessId q = 0; q < n_; ++q) {
    if (!include_self && q == self_) continue;
    transport_.send(WireMessage{self_, q, env});
  }
}

void RuntimeProcess::emit_event(const std::string& kind, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{now(), kind, value});
}

void RuntimeProcess::loop() {
  // The host's first step, as in the simulator: fresh detector sample,
  // start every configured module, tick once.
  refresh_fd();
  start_modules();
  tick_modules();
  // The periodic tick drives timeouts/heartbeats/retries. It fires after
  // the batch that reaches its deadline and re-arms one period later, so
  // a loop that fell behind ticks once, not once per missed period.
  Time next_tick = now() + kTickMs;

  std::vector<WireMessage> batch;
  std::vector<std::function<void()>> todo;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        if (state_ == State::kKilled) {
          state_ = State::kDone;
          return;
        }
        if (!inbox_.empty() || !tasks_.empty()) break;
        if (state_ == State::kStopping) {
          state_ = State::kDone;
          return;
        }
        // Sleep until the tick deadline or until work arrives.
        const auto wake = epoch_ + std::chrono::milliseconds(next_tick);
        if (cv_.wait_until(lock, wake) == std::cv_status::timeout) break;
      }
      batch.swap(inbox_);
      todo.swap(tasks_);
    }
    for (auto& fn : todo) fn();
    todo.clear();
    for (WireMessage& m : batch) {
      const auto* env = sim::payload_cast<sim::ModuleEnvelope>(*m.payload);
      WFD_CHECK_MSG(env != nullptr,
                    "runtime host received a non-module message");
      // One simulator-shaped step per message: sample, deliver, tick.
      refresh_fd();
      dispatch_module_msg(m.from, *env);
      tick_modules();
    }
    batch.clear();
    if (now() >= next_tick) {
      refresh_fd();
      tick_modules();
      next_tick = now() + kTickMs;
    }
  }
}

}  // namespace wfd::runtime
