// A cluster of RuntimeProcesses over one shared ChannelTransport: the
// runtime analogue of the simulator's process array, owning construction
// order and teardown order (processes stop before the transport dies).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "runtime/host.h"
#include "runtime/transport.h"

namespace wfd::runtime {

class RuntimeCluster {
 public:
  /// Builds one process's module stack: add modules to the host and wire
  /// its detector (RuntimeProcess::set_detector). Called once per
  /// process, before any thread starts.
  using StackFactory = std::function<void(RuntimeProcess&)>;

  struct Options {
    int n = 3;
    std::uint64_t seed = 1;
    LinkFaults faults;  ///< Drop/delay injection on the channel transport.
  };

  RuntimeCluster(Options opt, StackFactory factory);
  ~RuntimeCluster();

  /// Start every process thread.
  void start();

  /// Gracefully stop all still-running processes, then the transport.
  void stop();

  /// Crash process p (abrupt; see RuntimeProcess::kill).
  void kill(ProcessId p);

  [[nodiscard]] int n() const { return opt_.n; }
  [[nodiscard]] RuntimeProcess& process(ProcessId p);
  [[nodiscard]] ChannelTransport& transport() { return *transport_; }
  [[nodiscard]] RuntimeProcess::Clock::time_point epoch() const {
    return epoch_;
  }

 private:
  Options opt_;
  RuntimeProcess::Clock::time_point epoch_;
  std::unique_ptr<ChannelTransport> transport_;
  std::vector<std::unique_ptr<RuntimeProcess>> procs_;
};

}  // namespace wfd::runtime
