#include "runtime/cluster.h"

#include "common/check.h"

namespace wfd::runtime {

RuntimeCluster::RuntimeCluster(Options opt, StackFactory factory)
    : opt_(opt), epoch_(RuntimeProcess::Clock::now()) {
  WFD_CHECK(opt_.n > 0);
  WFD_CHECK(factory != nullptr);
  LinkFaults faults = opt_.faults;
  if (faults.seed == 0) faults.seed = opt_.seed;
  transport_ = std::make_unique<ChannelTransport>(faults);
  for (ProcessId p = 0; p < opt_.n; ++p) {
    RuntimeProcess::Options popt;
    popt.seed = opt_.seed;
    procs_.push_back(std::make_unique<RuntimeProcess>(
        p, opt_.n, *transport_, epoch_, popt));
    factory(*procs_.back());
  }
}

RuntimeCluster::~RuntimeCluster() { stop(); }

void RuntimeCluster::start() {
  for (auto& p : procs_) p->start();
}

void RuntimeCluster::stop() {
  // Kill rather than drain: service modules are never "done", and a
  // stopping process whose peers are already gone would wait on nothing.
  for (auto& p : procs_) p->kill();
  transport_->shutdown();
}

void RuntimeCluster::kill(ProcessId p) { process(p).kill(); }

RuntimeProcess& RuntimeCluster::process(ProcessId p) {
  WFD_CHECK(p >= 0 && p < static_cast<ProcessId>(procs_.size()));
  return *procs_[static_cast<std::size_t>(p)];
}

}  // namespace wfd::runtime
