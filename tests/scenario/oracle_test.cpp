/// Differential/property suite: for 200+ seeded instances across every
/// family, the oracle's invariants hold — LP lower bound <= exact <= the
/// single-tree heuristics, every candidate certificate-validated, zero
/// violations. The bulk runs the cheap strategy set (tree heuristics,
/// Multicast-UB, exact) so tier-1 stays fast; a smaller slice races all 8
/// strategies including the LP refinement heuristics.

#include "scenario/oracle.hpp"

#include <gtest/gtest.h>

#include "runtime/engine.hpp"
#include "scenario/generator.hpp"

namespace pmcast::scenario {
namespace {

using runtime::CandidateState;
using runtime::Strategy;

/// Tree heuristics + scatter bound + exact: everything needed for the
/// LB <= exact <= tree-heuristic ordering, at milliseconds per instance.
OracleOptions cheap_options() {
  OracleOptions options;
  options.portfolio.strategies = {Strategy::Mcph, Strategy::PrunedDijkstra,
                                  Strategy::Kmb, Strategy::MulticastUb,
                                  Strategy::Exact};
  return options;
}

TEST(OracleSuite, TwoHundredInstancesAcrossAllFamiliesCheapSet) {
  // 6 families x 36 specs = 216 instances, sizes 7..9 so the exact solver
  // participates everywhere.
  int checked = 0;
  int exact_runs = 0;
  for (int nodes : {7, 8, 9}) {
    for (const ScenarioSpec& spec :
         corpus_specs(12, 9000 + static_cast<std::uint64_t>(nodes) * 100,
                      nodes)) {
      ScenarioInstance instance = generate_scenario(spec);
      OracleReport report = cross_check(instance.problem, cheap_options());
      EXPECT_TRUE(report.ok) << instance.name << ": " << report.summary();
      for (const OracleViolation& v : report.violations) {
        ADD_FAILURE() << instance.name << " [" << v.check << "] " << v.detail;
      }
      EXPECT_GE(report.lower_bound, 0.0);
      EXPECT_GT(report.certified, 0) << instance.name;
      if (report.exact_certified) {
        ++exact_runs;
        // gap vs the *tree-restricted* optimum can be below 1 (scatter may
        // beat trees) but never below the LP bound.
        EXPECT_GE(report.exact_period,
                  report.lower_bound * (1.0 - 1e-6))
            << instance.name;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 200);
  // Exact must actually have participated on the vast majority (it may
  // hit the tree-enumeration cap on a few dense geometric instances).
  EXPECT_GE(exact_runs, checked * 9 / 10);
}

TEST(OracleSuite, FullPortfolioSliceIncludingLpHeuristics) {
  for (const ScenarioSpec& spec : corpus_specs(3, 4000, 8)) {
    ScenarioInstance instance = generate_scenario(spec);
    OracleReport report = cross_check(instance.problem);  // all 8 strategies
    EXPECT_TRUE(report.ok) << instance.name << ": " << report.summary();
    for (const OracleViolation& v : report.violations) {
      ADD_FAILURE() << instance.name << " [" << v.check << "] " << v.detail;
    }
    // All 8 strategies accounted for, none silently lost.
    EXPECT_EQ(report.certified + report.failed + report.skipped, 8)
        << instance.name;
    EXPECT_EQ(report.failed, 0) << instance.name;
  }
}

TEST(Oracle, AcceptsPrecomputedPortfolioResult) {
  ScenarioSpec spec;
  spec.family = Family::Star;
  spec.nodes = 8;
  spec.seed = 5;
  ScenarioInstance instance = generate_scenario(spec);

  OracleOptions options = cheap_options();
  runtime::PortfolioResult result =
      runtime::solve_portfolio(instance.problem, options.portfolio);
  OracleReport from_result = cross_check(instance.problem, result, options);
  OracleReport from_problem = cross_check(instance.problem, options);
  EXPECT_TRUE(from_result.ok);
  EXPECT_DOUBLE_EQ(from_result.best_period, from_problem.best_period);
  EXPECT_DOUBLE_EQ(from_result.lower_bound, from_problem.lower_bound);
}

TEST(Oracle, FlagsInfeasibleInstances) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);  // node 2 unreachable
  core::MulticastProblem problem(g, 0, {1, 2});
  OracleReport report = cross_check(problem, cheap_options());
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].check, "infeasible");
}

TEST(Oracle, FlagsFabricatedSubLowerBoundPeriod) {
  ScenarioSpec spec;
  spec.family = Family::Grid;
  spec.nodes = 8;
  spec.seed = 11;
  ScenarioInstance instance = generate_scenario(spec);

  OracleOptions options = cheap_options();
  runtime::PortfolioResult result =
      runtime::solve_portfolio(instance.problem, options.portfolio);
  ASSERT_TRUE(result.ok);
  // Tamper with a certified candidate: claim an impossible period.
  for (auto& c : result.candidates) {
    if (c.state == CandidateState::Certified) {
      c.period = 1e-3;
      break;
    }
  }
  OracleReport report = cross_check(instance.problem, result, options);
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const OracleViolation& v : report.violations) {
    found |= v.check == "lb_ordering";
  }
  EXPECT_TRUE(found);
}

TEST(Oracle, FailedStrategiesAreViolationsUnlessAllowed) {
  ScenarioSpec spec;
  spec.family = Family::FatTree;
  spec.nodes = 8;
  spec.seed = 3;
  ScenarioInstance instance = generate_scenario(spec);

  OracleOptions options = cheap_options();
  runtime::PortfolioResult result =
      runtime::solve_portfolio(instance.problem, options.portfolio);
  ASSERT_TRUE(result.ok);
  result.candidates[0].state = CandidateState::Failed;
  result.candidates[0].detail = "injected failure";

  OracleReport strict = cross_check(instance.problem, result, options);
  EXPECT_FALSE(strict.ok);
  ASSERT_FALSE(strict.violations.empty());
  EXPECT_EQ(strict.violations[0].check, "strategy_failed");

  options.allow_failures = true;
  OracleReport relaxed = cross_check(instance.problem, result, options);
  EXPECT_TRUE(relaxed.ok);
  EXPECT_EQ(relaxed.failed, 1);
}

TEST(Oracle, SummaryMentionsFirstViolation) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  core::MulticastProblem problem(g, 0, {1, 2});
  OracleReport report = cross_check(problem, cheap_options());
  EXPECT_NE(report.summary().find("infeasible"), std::string::npos);
}

}  // namespace
}  // namespace pmcast::scenario
