// FS from the perfect detector P: output red as soon as anyone is
// suspected. P's strong accuracy turns a suspicion into a proof that a
// failure occurred (FS accuracy), and its strong completeness makes
// every correct process eventually suspect a crashed one (FS
// completeness). From a merely eventually-accurate class this is
// unsound — an early false suspicion at any single process poisons the
// output red with no failure. Stacked on HeartbeatOmegaModule it is
// therefore FS only under synchrony with a safe heartbeat timeout; an
// aggressive timeout in an asynchronous run turns it red with nobody
// crashed, the reason FS is not implementable without synchrony.
#pragma once

#include "sim/module.h"

namespace wfd::fd {

class FsFromSuspicionsModule : public sim::Module, public sim::FdSource {
 public:
  void on_message(ProcessId, const sim::Payload&) override {}

  void on_tick() override {
    if (red_) return;
    const auto v = detector();
    if (v.suspected.has_value() && !v.suspected->empty()) red_ = true;
  }

  [[nodiscard]] FdValue fd_value() const override {
    FdValue v;
    v.fs = red_ ? FsColor::kRed : FsColor::kGreen;
    return v;
  }

  [[nodiscard]] bool red() const { return red_; }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("red", red_);
  }

 private:
  bool red_ = false;
};

}  // namespace wfd::fd
