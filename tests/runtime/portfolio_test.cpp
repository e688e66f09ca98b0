/// Portfolio-level properties: every winning period is certificate-backed,
/// never worse than any individual certified strategy, sandwiched by the LP
/// bounds, and bit-identical across thread counts.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include "core/exact.hpp"
#include "core/formulations.hpp"
#include "graph/rng.hpp"

namespace pmcast::runtime {
namespace {

using core::MulticastProblem;

constexpr double kTol = 1e-5;

MulticastProblem random_problem(std::uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 17);
  while (true) {
    int n = static_cast<int>(rng.uniform_int(5, 7));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.bernoulli(0.45)) {
          g.add_edge(u, v, rng.uniform_real(0.5, 3.0));
        }
      }
    }
    std::vector<NodeId> targets;
    for (int v = 1; v < n; ++v) {
      if (rng.bernoulli(0.55)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(n - 1);
    MulticastProblem p(g, 0, targets);
    if (p.feasible()) return p;
  }
}

class PortfolioProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PortfolioProperty, WinnerCertifiedAndDominant) {
  MulticastProblem p = random_problem(GetParam());
  PortfolioResult r = solve_portfolio(p);
  ASSERT_TRUE(r.ok) << "no strategy certified, seed " << GetParam();
  EXPECT_LT(r.period, kInfinity);

  // Never worse than any individual certified strategy (the acceptance
  // criterion): the winner *is* the min over them, check it explicitly.
  bool winner_seen = false;
  for (const CandidateOutcome& c : r.candidates) {
    if (c.state != CandidateState::Certified) continue;
    EXPECT_LE(r.period, c.period + kTol)
        << strategy_name(c.strategy) << " beats the winner, seed "
        << GetParam();
    if (c.strategy == r.winner) {
      winner_seen = true;
      EXPECT_DOUBLE_EQ(c.period, r.period);
    }
  }
  EXPECT_TRUE(winner_seen);

  // Sandwiched by the LP bounds: no certified period may beat the LB, and
  // the winner must be at least as good as the always-certifiable scatter.
  core::FlowSolution lb = core::solve_multicast_lb(p);
  core::FlowSolution ub = core::solve_multicast_ub(p);
  ASSERT_TRUE(lb.ok() && ub.ok());
  for (const CandidateOutcome& c : r.candidates) {
    if (c.state == CandidateState::Certified) {
      EXPECT_GE(c.period, lb.period - kTol)
          << strategy_name(c.strategy) << " beats the LP lower bound, seed "
          << GetParam();
    }
  }
  EXPECT_LE(r.period, ub.period + kTol);
}

TEST_P(PortfolioProperty, NeverBeatsExactOptimum) {
  MulticastProblem p = random_problem(GetParam());
  core::ExactSolution exact = core::exact_optimal_throughput(p);
  ASSERT_TRUE(exact.ok);
  PortfolioResult r = solve_portfolio(p);
  ASSERT_TRUE(r.ok);
  // The exact strategy itself realises the optimum up to rationalisation
  // error, so allow that slack below the LP optimum.
  double opt_period = 1.0 / exact.throughput;
  EXPECT_GE(r.period, opt_period - 0.02 * opt_period - kTol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Portfolio, DeterministicAcrossThreadCounts) {
  for (std::uint64_t seed : {3ULL, 7ULL, 9ULL}) {
    MulticastProblem p = random_problem(seed);
    PortfolioResult inline_r = solve_portfolio(p);
    for (int threads : {1, 2, 8}) {
      EngineOptions options;
      options.threads = threads;
      options.cache_capacity = 0;
      PortfolioEngine engine(options);
      PortfolioResult r = engine.solve(p);
      ASSERT_EQ(r.ok, inline_r.ok) << threads << " threads, seed " << seed;
      // Bit-identical, not approximately equal: each strategy is a pure
      // function of the instance regardless of which worker ran it.
      EXPECT_EQ(r.period, inline_r.period)
          << threads << " threads, seed " << seed;
      EXPECT_EQ(r.winner, inline_r.winner);
      ASSERT_EQ(r.candidates.size(), inline_r.candidates.size());
      for (size_t i = 0; i < r.candidates.size(); ++i) {
        EXPECT_EQ(r.candidates[i].state, inline_r.candidates[i].state);
        EXPECT_EQ(r.candidates[i].period, inline_r.candidates[i].period);
      }
    }
  }
}

TEST(Portfolio, PreCancelledTokenSkipsAllStrategies) {
  MulticastProblem p = random_problem(1);
  CancellationToken cancel;
  cancel.request_stop();
  PortfolioResult r = solve_portfolio(p, {}, cancel);
  EXPECT_FALSE(r.ok);
  for (const CandidateOutcome& c : r.candidates) {
    EXPECT_EQ(c.state, CandidateState::Skipped);
  }
}

TEST(Portfolio, ExpiredDeadlineSkipsAllStrategies) {
  MulticastProblem p = random_problem(2);
  PortfolioOptions options;
  options.budget.deadline_ms = 1e-6;  // expires before any strategy starts
  PortfolioResult r = solve_portfolio(p, options);
  EXPECT_FALSE(r.ok);
  for (const CandidateOutcome& c : r.candidates) {
    EXPECT_EQ(c.state, CandidateState::Skipped);
  }
}

TEST(Portfolio, InfeasibleInstanceFailsCleanly) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);  // node 2 unreachable
  MulticastProblem p(g, 0, {1, 2});
  PortfolioResult r = solve_portfolio(p);
  EXPECT_FALSE(r.ok);
  for (const CandidateOutcome& c : r.candidates) {
    EXPECT_EQ(c.state, CandidateState::Failed);
    EXPECT_NE(c.detail.find("infeasible"), std::string::npos);
  }
}

TEST(Portfolio, StrategySubsetRuns) {
  MulticastProblem p = random_problem(4);
  PortfolioOptions options;
  options.strategies = {Strategy::Mcph, Strategy::MulticastUb};
  PortfolioResult r = solve_portfolio(p, options);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.candidates.size(), 2u);
}

TEST(Portfolio, ExactSkippedAboveNodeLimit) {
  MulticastProblem p = random_problem(5);
  PortfolioOptions options;
  options.strategies = {Strategy::Exact};
  options.budget.exact_max_nodes = p.graph.node_count() - 1;
  PortfolioResult r = solve_portfolio(p, options);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.candidates.size(), 1u);
  EXPECT_EQ(r.candidates[0].state, CandidateState::Skipped);
}

}  // namespace
}  // namespace pmcast::runtime
