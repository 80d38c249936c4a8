#include "extract/qc_sandbox.h"

#include <memory>

#include "common/check.h"
#include "fd/oracle.h"
#include "sim/scheduler.h"

namespace wfd::extract {
namespace {

/// Oracle replaying the script's detector values by step index.
class ScriptedOracle : public fd::Oracle {
 public:
  explicit ScriptedOracle(const std::vector<ScriptStep>* script)
      : script_(script) {}

  void begin_run(const sim::FailurePattern&, std::uint64_t, Time) override {}

  fd::FdValue query(ProcessId p, Time t) override {
    WFD_CHECK(t < script_->size());
    const ScriptStep& step = (*script_)[static_cast<std::size_t>(t)];
    WFD_CHECK(step.p == p);
    return step.value;
  }

 private:
  const std::vector<ScriptStep>* script_;
};

/// Scheduler replaying the script's process sequence; each step delivers
/// the oldest pending message (or lambda).
class ScriptedScheduler : public sim::Scheduler {
 public:
  explicit ScriptedScheduler(const std::vector<ScriptStep>* script)
      : script_(script) {}

  void begin_run(int, const sim::FailurePattern&, std::uint64_t) override {}

  sim::StepChoice next(const sim::Network& net, const sim::FailurePattern&,
                       Time now) override {
    if (now >= script_->size()) return sim::StepChoice{};  // Script over.
    sim::StepChoice c;
    c.p = (*script_)[static_cast<std::size_t>(now)].p;
    c.message_id = net.oldest_for(c.p);
    return c;
  }

  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  const std::vector<ScriptStep>* script_;
};

}  // namespace

SandboxResult run_sandbox(const SandboxSpec& spec,
                          const std::vector<int>& proposals,
                          const std::vector<ScriptStep>& script,
                          ProcessId observer) {
  WFD_CHECK(spec.n >= 1);
  WFD_CHECK(static_cast<int>(proposals.size()) == spec.n);
  sim::SimConfig cfg;
  cfg.n = spec.n;
  cfg.max_steps = static_cast<Time>(script.size());
  cfg.seed = 1;  // Fixed: replays must be identical everywhere.
  sim::Simulator inner(cfg, sim::FailurePattern(spec.n),
                       std::make_unique<ScriptedOracle>(&script),
                       std::make_unique<ScriptedScheduler>(&script));
  spec.build(inner, proposals);
  inner.set_halt_on_done(false);

  SandboxResult result;
  std::size_t steps_done = 0;
  while (steps_done < script.size()) {
    if (!inner.step()) break;
    result.steppers.insert(script[steps_done].p);
    ++steps_done;
    const auto d = spec.decision_of(inner, observer);
    if (d.has_value()) {
      result.decision = d;
      result.decided_after = steps_done;
      return result;
    }
  }
  result.decided_after = script.size() + 1;
  return result;
}

std::vector<int> forest_initial_config(int n, int i) {
  WFD_CHECK(i >= 0 && i <= n);
  std::vector<int> proposals(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < i; ++k) proposals[static_cast<std::size_t>(k)] = 1;
  return proposals;
}

std::vector<ScriptStep> to_script(const std::vector<DagNode>& nodes) {
  std::vector<ScriptStep> script;
  script.reserve(nodes.size());
  for (const DagNode& node : nodes) {
    ScriptStep s;
    s.p = node.p;
    s.value = node.value;
    script.push_back(std::move(s));
  }
  return script;
}

}  // namespace wfd::extract
