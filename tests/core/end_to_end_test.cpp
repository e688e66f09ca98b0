/// End-to-end property tests tying the whole stack together on random
/// platforms: exact optimum >= every heuristic, every reported solution is
/// realisable as a one-port schedule, and the schedule's simulated
/// throughput matches the claimed one.

#include <gtest/gtest.h>

#include "core/certificate.hpp"
#include "core/exact.hpp"
#include "core/flows.hpp"
#include "core/formulations.hpp"
#include "core/lp_heuristics.hpp"
#include "core/tree.hpp"
#include "core/tree_heuristics.hpp"
#include "graph/rng.hpp"
#include "sched/schedule.hpp"
#include "sched/simulator.hpp"

namespace pmcast::core {
namespace {

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

class EndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEnd, ExactDominatesEveryHeuristic) {
  MulticastProblem p = random_problem(GetParam());
  ExactSolution exact = exact_optimal_throughput(p);
  ASSERT_TRUE(exact.ok);
  double opt_period = 1.0 / exact.throughput;

  if (auto tree = mcph(p)) {
    EXPECT_GE(tree_period(p.graph, *tree), opt_period - kTol);
  }
  if (auto tree = pruned_dijkstra(p)) {
    EXPECT_GE(tree_period(p.graph, *tree), opt_period - kTol);
  }
  if (auto tree = kmb(p)) {
    EXPECT_GE(tree_period(p.graph, *tree), opt_period - kTol);
  }
  auto as = augmented_sources(p);
  ASSERT_TRUE(as.ok);
  EXPECT_GE(as.period, opt_period - kTol) << "seed " << GetParam();
}

TEST_P(EndToEnd, ExactCertificateVerifiesAndSimulates) {
  MulticastProblem p = random_problem(GetParam());
  ExactSolution exact = exact_optimal_throughput(p);
  ASSERT_TRUE(exact.ok);
  auto cert = verify_certificate(p, exact.combination, /*simulate=*/16);
  ASSERT_TRUE(cert.valid) << cert.reason << " seed " << GetParam();
  // The rationalised realisation may differ from the LP optimum only by
  // the rationalisation error.
  EXPECT_NEAR(cert.throughput, exact.throughput,
              0.01 * exact.throughput + 1e-6);
}

TEST_P(EndToEnd, UbFlowScheduleDeliversEverything) {
  MulticastProblem p = random_problem(GetParam());
  FlowSolution ub = solve_multicast_ub(p);
  ASSERT_TRUE(ub.ok());
  FlowSchedule fs = build_flow_schedule(p, ub);
  ASSERT_TRUE(fs.schedule.ok);
  EXPECT_LE(fs.period, ub.period + kTol);
  for (NodeId t : p.targets) {
    double delivered = 0.0;
    for (const FlowPath& path : fs.paths) {
      if (path.target == t) delivered += path.rate;
    }
    EXPECT_NEAR(delivered, 1.0, 1e-5)
        << "target " << t << " seed " << GetParam();
  }
  auto report =
      sched::simulate(fs.schedule, fs.streams, p.graph.node_count(), 20);
  EXPECT_TRUE(report.ok) << report.error << " seed " << GetParam();
}

TEST_P(EndToEnd, MultisourceNeverWorseThanUb) {
  MulticastProblem p = random_problem(GetParam());
  FlowSolution ub = solve_multicast_ub(p);
  ASSERT_TRUE(ub.ok());
  auto as = augmented_sources(p);
  ASSERT_TRUE(as.ok);
  EXPECT_LE(as.period, ub.period + kTol);
  FlowSchedule fs = build_multisource_schedule(p, as.sources, as.solution);
  ASSERT_TRUE(fs.schedule.ok);
  EXPECT_TRUE(
      sched::validate_schedule(fs.schedule, p.graph.node_count()).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEnd,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace pmcast::core
