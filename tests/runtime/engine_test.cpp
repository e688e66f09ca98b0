/// Engine-level behaviour: caching, batch coalescing, per-request budgets
/// and thread-count agreement — the satellite determinism/caching coverage.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include "core/problem.hpp"
#include "graph/rng.hpp"

namespace pmcast::runtime {
namespace {

using core::MulticastProblem;

EngineOptions with_threads(int threads, std::size_t cache_capacity = 1024) {
  EngineOptions options;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  return options;
}

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

TEST(Engine, SameInstanceTwiceIsACacheHitWithIdenticalPeriod) {
  PortfolioEngine engine(with_threads(2));
  MulticastProblem p = random_problem(1);
  PortfolioResult first = engine.solve(p);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.from_cache);

  PortfolioResult second = engine.solve(p);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.period, first.period);  // bit-identical
  EXPECT_EQ(second.winner, first.winner);

  CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Engine, RebuiltInstanceHitsCacheThroughCanonicalHash) {
  PortfolioEngine engine(with_threads(1));
  MulticastProblem p = random_problem(2);
  ASSERT_TRUE(engine.solve(p).ok);

  // Same instance, edges inserted in reverse order, targets shuffled.
  Digraph g(p.graph.node_count());
  for (EdgeId e = p.graph.edge_count() - 1; e >= 0; --e) {
    const Edge& edge = p.graph.edge(e);
    g.add_edge(edge.from, edge.to, edge.cost);
  }
  std::vector<NodeId> targets(p.targets.rbegin(), p.targets.rend());
  MulticastProblem rebuilt(g, p.source, targets);
  PortfolioResult r = engine.solve(rebuilt);
  EXPECT_TRUE(r.from_cache);
}

TEST(Engine, BatchCoalescesDuplicateInstances) {
  PortfolioEngine engine(with_threads(2));
  MulticastProblem a = random_problem(3);
  MulticastProblem b = random_problem(4);
  std::vector<MulticastProblem> batch{a, b, a, a, b};
  auto results = engine.solve_batch(batch);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) ASSERT_TRUE(r.ok);

  EXPECT_FALSE(results[0].coalesced);
  EXPECT_FALSE(results[1].coalesced);
  EXPECT_TRUE(results[2].coalesced);
  EXPECT_TRUE(results[3].coalesced);
  EXPECT_TRUE(results[4].coalesced);
  EXPECT_EQ(results[2].period, results[0].period);
  EXPECT_EQ(results[3].period, results[0].period);
  EXPECT_EQ(results[4].period, results[1].period);

  // Only the two unique instances were actually solved (and cached).
  EXPECT_EQ(engine.cache_stats().entries, 2u);
}

TEST(Engine, ThreadCountsOneTwoEightAgree) {
  std::vector<MulticastProblem> batch;
  for (std::uint64_t s = 10; s < 16; ++s) batch.push_back(random_problem(s));

  PortfolioEngine baseline(with_threads(0));  // inline reference
  auto expected = baseline.solve_batch(batch);
  for (int threads : {1, 2, 8}) {
    PortfolioEngine engine(with_threads(threads));
    auto results = engine.solve_batch(batch);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].ok, expected[i].ok)
          << threads << " threads, instance " << i;
      EXPECT_EQ(results[i].period, expected[i].period)
          << threads << " threads, instance " << i;
      EXPECT_EQ(results[i].winner, expected[i].winner)
          << threads << " threads, instance " << i;
    }
  }
}

TEST(Engine, PerRequestDeadlineOnlyAffectsThatRequest) {
  PortfolioEngine engine(with_threads(2));
  std::vector<MulticastProblem> batch{random_problem(20), random_problem(21)};
  std::vector<RequestOptions> requests(2);
  requests[0].budget.deadline_ms = 1e-6;  // already expired at batch entry
  auto results = engine.solve_batch(batch, requests);
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  // The starved result must not poison the cache: retrying without the
  // deadline has to actually solve (a miss, then certified).
  PortfolioResult retry = engine.solve(batch[0]);
  EXPECT_TRUE(retry.ok);
  EXPECT_FALSE(retry.from_cache);
}

TEST(Engine, ShorterRequestSpanFallsBackToDefaults) {
  PortfolioEngine engine(with_threads(2));
  std::vector<MulticastProblem> batch{random_problem(40), random_problem(41),
                                      random_problem(42)};
  std::vector<RequestOptions> requests(1);  // covers only the first request
  requests[0].budget.deadline_ms = 1e-6;
  auto results = engine.solve_batch(batch, requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);  // starved by its own deadline
  EXPECT_TRUE(results[1].ok);   // default (unlimited) budget
  EXPECT_TRUE(results[2].ok);
}

TEST(Engine, CancellationStopsOneRequest) {
  PortfolioEngine engine(with_threads(1));
  std::vector<MulticastProblem> batch{random_problem(22), random_problem(23)};
  std::vector<RequestOptions> requests(2);
  requests[0].cancel.request_stop();
  auto results = engine.solve_batch(batch, requests);
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
}

TEST(Engine, CacheDisabledStillSolves) {
  PortfolioEngine engine(with_threads(1, /*cache_capacity=*/0));
  MulticastProblem p = random_problem(30);
  EXPECT_TRUE(engine.solve(p).ok);
  PortfolioResult again = engine.solve(p);
  EXPECT_TRUE(again.ok);
  EXPECT_FALSE(again.from_cache);
}

TEST(Engine, EmptyBatch) {
  PortfolioEngine engine(with_threads(1));
  EXPECT_TRUE(engine.solve_batch({}).empty());
}

}  // namespace
}  // namespace pmcast::runtime
