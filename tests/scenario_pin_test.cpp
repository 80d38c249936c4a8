// Pins every problem's scenario wiring to exact search counts.
//
// Each row is a shallow exhaustive search (n=3, --fd=static unless the
// row says otherwise) given as wfd_check flags. The states/runs/steps it
// reports are a function of everything ScenarioFactory wires: the
// modules, their names and add order, the detector components, the
// invariants and eventuals, the fault plan and the symmetry classes. A
// refactor of the factory that changes any of them moves a count here.
// The base rows cover every name in ScenarioFactory::problems(); the
// extra rows cover explored crashes, per-query and adversarial detector
// histories, lossy links, symmetry reduction and liveness clauses.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "explore/scenario.h"
#include "explore/search_config.h"

namespace wfd::explore {
namespace {

struct Pin {
  const char* id;  ///< gtest parameter name.
  std::vector<std::string> flags;
  std::uint64_t states;
  std::uint64_t runs;
  std::uint64_t steps;
  /// Property of the expected violation; empty for a clean exhaust.
  std::string violation;
};

void PrintTo(const Pin& p, std::ostream* os) { *os << p.id; }

const std::vector<Pin>& pins() {
  static const std::vector<Pin> kPins = {
      // One row per problem.
      {"consensus", {"--problem=consensus", "--depth=10"},
       3277, 4753, 40153, ""},
      {"consensus_bug", {"--problem=consensus-bug", "--depth=10"},
       10, 12, 67, "agreement(decide)"},
      {"consensus_crash_bug", {"--problem=consensus-crash-bug", "--depth=10"},
       22, 41, 228, ""},
      {"consensus_live_bug", {"--problem=consensus-live-bug", "--depth=10"},
       1401, 2312, 16574, ""},
      {"consensus_crash_live_bug",
       {"--problem=consensus-crash-live-bug", "--depth=10"},
       5633, 10102, 91191, ""},
      {"qc", {"--problem=qc", "--depth=10"}, 955, 1007, 4179, ""},
      {"nbac", {"--problem=nbac", "--depth=10"}, 30157, 39748, 311611, ""},
      {"sigma", {"--problem=sigma", "--depth=10"}, 31, 3, 30, ""},
      {"register", {"--problem=register", "--depth=10"},
       5640, 17315, 163669, ""},
      {"register_regular", {"--problem=register-regular", "--depth=10"},
       5646, 17200, 162571, ""},
      {"abcast", {"--problem=abcast", "--depth=8"}, 5374, 14143, 108503, ""},
      {"rb", {"--problem=rb", "--depth=10"}, 15, 4, 36, ""},
      {"omega_impl", {"--problem=omega-impl", "--depth=10"},
       5160, 6638, 65927, ""},
      // Explored crashes: the fault plan, the oracle's live pattern and,
      // on the Psi/FS problems, the FD prefix invariant.
      {"consensus_crash_explore",
       {"--problem=consensus", "--depth=10", "--crash=explore", "--crashes=1"},
       16458, 18473, 160482, ""},
      {"nbac_crash_explore",
       {"--problem=nbac", "--depth=6", "--crash=explore", "--crashes=1"},
       63875, 90874, 511908, ""},
      {"consensus_crash_bug_explore",
       {"--problem=consensus-crash-bug", "--depth=10", "--crash=explore",
        "--crashes=1"},
       299, 233, 1559, "agreement(decide)"},
      // Per-query and adversarial detector histories.
      {"qc_flap", {"--problem=qc", "--depth=8", "--fd=flap"},
       4054, 7410, 35579, ""},
      {"qc_adversarial", {"--problem=qc", "--depth=6", "--fd=adversarial"},
       3788, 6876, 31110, ""},
      // Lossy links route register traffic through the quasi-reliable
      // wrapper.
      {"register_lossy", {"--problem=register", "--depth=8", "--loss=drop:1"},
       10562, 49274, 389654, ""},
      // Symmetry classes, one row per rule.
      {"consensus_symmetry",
       {"--problem=consensus", "--depth=10", "--symmetry"},
       1903, 2772, 23289, ""},
      {"nbac_symmetry",
       {"--problem=nbac", "--depth=10", "--symmetry", "--nbac-no-voter=1"},
       15776, 22180, 174061, ""},
      {"sigma_symmetry", {"--problem=sigma", "--depth=10", "--symmetry"},
       31, 3, 30, ""},
      {"register_symmetry",
       {"--problem=register", "--depth=10", "--symmetry"},
       3084, 9649, 90951, ""},
      // Liveness clauses, each wired to its problem's modules.
      {"consensus_leadership",
       {"--problem=consensus", "--depth=8", "--liveness=leadership",
        "--reduction=none"},
       3777, 15001, 104923, ""},
      {"rb_termination",
       {"--problem=rb", "--depth=10", "--liveness=termination",
        "--reduction=none"},
       409, 2282, 18855, ""},
      {"omega_impl_completeness",
       {"--problem=omega-impl", "--depth=6", "--liveness=fd-completeness",
        "--reduction=none"},
       1022, 5773, 34492, ""},
  };
  return kPins;
}

SearchConfig config_of(const Pin& p) {
  SearchConfig cfg;
  cfg.scenario.n = 3;
  cfg.scenario.fd_per_query = false;  // --fd=static unless overridden.
  cfg.max_states = 0;
  for (const std::string& f : p.flags) {
    EXPECT_EQ(apply_cli_flag(cfg, f), CliResult::kApplied) << f;
  }
  return cfg;
}

class ScenarioPinTest : public testing::TestWithParam<Pin> {};

TEST_P(ScenarioPinTest, CountsMatchPin) {
  const Pin& p = GetParam();
  const SearchConfig cfg = config_of(p);
  ASSERT_EQ(validate(cfg), "");
  Explorer ex(ScenarioFactory(cfg.scenario).builder(), cfg);
  const ExploreReport rep = ex.run();
  EXPECT_EQ(rep.stats.nodes, p.states);
  EXPECT_EQ(rep.stats.runs, p.runs);
  EXPECT_EQ(rep.stats.steps, p.steps);
  EXPECT_EQ(rep.cex.has_value() ? rep.cex->violation.property : "",
            p.violation);
  if (!rep.cex.has_value()) {
    EXPECT_TRUE(rep.stats.exhausted);
  }
}

INSTANTIATE_TEST_SUITE_P(Problems, ScenarioPinTest, testing::ValuesIn(pins()),
                         [](const testing::TestParamInfo<Pin>& info) {
                           return std::string(info.param.id);
                         });

TEST(ScenarioPinCoverageTest, EveryProblemIsPinned) {
  std::set<std::string> pinned;
  for (const Pin& p : pins()) pinned.insert(config_of(p).scenario.problem);
  for (const ProblemSpec& spec : ScenarioFactory::problems()) {
    EXPECT_EQ(pinned.count(std::string(spec.name)), 1u) << spec.name;
  }
}

}  // namespace
}  // namespace wfd::explore
