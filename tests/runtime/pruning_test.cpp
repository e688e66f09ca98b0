/// Cooperative-pruning differential suite: Deterministic pruning is
/// bit-identical to Off for winner/period/certificate across 1/2/8 engine
/// threads (and candidate-identical across thread counts), a pruned
/// candidate is never the winner, and the Incumbent publish/observe
/// protocol is clean under concurrency (this file runs in the TSan lane).

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/io.hpp"
#include "graph/rng.hpp"
#include "runtime/engine.hpp"
#include "runtime/incumbent.hpp"
#include "runtime/portfolio.hpp"

#ifndef PMCAST_TEST_DATA_DIR
#error "PMCAST_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace pmcast::runtime {
namespace {

std::vector<core::MulticastProblem> golden_corpus() {
  std::ifstream manifest(std::string(PMCAST_TEST_DATA_DIR) +
                         "/golden_manifest.txt");
  EXPECT_TRUE(manifest.good()) << "missing tests/data/golden_manifest.txt";
  std::vector<core::MulticastProblem> problems;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string file;
    if (!(ls >> file)) continue;
    Result<PlatformFile> platform =
        load_platform(std::string(PMCAST_TEST_DATA_DIR) + "/" + file);
    EXPECT_TRUE(platform.ok()) << file;
    problems.emplace_back(platform->graph, platform->source,
                          platform->targets);
  }
  EXPECT_GE(problems.size(), 10u);
  return problems;
}

core::MulticastProblem dense_instance(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  while (true) {
    Digraph g(8);
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        if (u != v && rng.bernoulli(0.4)) {
          g.add_edge(u, v, rng.uniform_real(0.5, 3.0));
        }
      }
    }
    std::vector<NodeId> targets;
    for (int v = 1; v < 8; ++v) {
      if (rng.bernoulli(0.5)) targets.push_back(v);
    }
    if (targets.size() < 2) continue;  // multi-target: scatter bound is loose
    core::MulticastProblem p(g, 0, targets);
    if (p.feasible()) return p;
  }
}

EngineOptions engine_options(int threads, PruningPolicy policy) {
  EngineOptions options;
  options.threads = threads;
  options.cache_capacity = 0;  // differential runs must not share results
  options.portfolio.pruning = policy;
  return options;
}

// ---------------------------------------------------------------- Incumbent

TEST(Incumbent, BoundsAreMonotone) {
  Incumbent incumbent;
  EXPECT_EQ(incumbent.best_certified(), kInfinity);
  EXPECT_EQ(incumbent.proven_lb(), 0.0);
  EXPECT_EQ(incumbent.scatter_ub(), kInfinity);

  incumbent.publish_certified(3.0, 4);
  incumbent.publish_certified(5.0, 1);  // worse: ignored
  EXPECT_DOUBLE_EQ(incumbent.best_certified(), 3.0);
  incumbent.publish_certified(2.5, 6);
  EXPECT_DOUBLE_EQ(incumbent.best_certified(), 2.5);

  incumbent.publish_lower_bound(1.0);
  incumbent.publish_lower_bound(0.5);  // weaker: ignored
  EXPECT_DOUBLE_EQ(incumbent.proven_lb(), 1.0);

  incumbent.publish_scatter_ub(4.0);
  incumbent.publish_scatter_ub(6.0);  // weaker: ignored
  EXPECT_DOUBLE_EQ(incumbent.scatter_ub(), 4.0);

  // Degenerate publishes are rejected outright.
  incumbent.publish_certified(0.0, 0);
  incumbent.publish_certified(kInfinity, 0);
  incumbent.publish_lower_bound(-1.0);
  EXPECT_DOUBLE_EQ(incumbent.best_certified(), 2.5);
  EXPECT_DOUBLE_EQ(incumbent.proven_lb(), 1.0);
}

TEST(Incumbent, EarlyWinTracksTheLowestQualifyingLaunchIndex) {
  Incumbent incumbent;
  incumbent.publish_certified(1.0, 2);  // no LB yet: no early win
  EXPECT_GT(incumbent.early_win_from(), 100);

  incumbent.publish_lower_bound(1.0);
  incumbent.publish_certified(1.5, 0);  // above the LB: no early win
  EXPECT_GT(incumbent.early_win_from(), 100);
  incumbent.publish_certified(1.0, 5);
  EXPECT_EQ(incumbent.early_win_from(), 5);
  incumbent.publish_certified(1.0, 3);  // earlier index wins
  EXPECT_EQ(incumbent.early_win_from(), 3);
  incumbent.publish_certified(1.0, 7);  // later index: ignored
  EXPECT_EQ(incumbent.early_win_from(), 3);

  IncumbentSnapshot snap = incumbent.freeze();
  EXPECT_DOUBLE_EQ(snap.best_certified, 1.0);
  EXPECT_DOUBLE_EQ(snap.proven_lb, 1.0);
  EXPECT_EQ(snap.early_win_from, 3);
}

TEST(Incumbent, ConcurrentPublishObserveConverges) {
  // Publish/observe hammer: the monotone CAS protocol must stay clean
  // under contention (TSan lane) and converge to the global min/max no
  // matter the interleaving.
  Incumbent incumbent;
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::atomic<int> observed_violations{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&incumbent, &observed_violations, t] {
      for (int r = 1; r <= kRounds; ++r) {
        double value = 1.0 + ((t * 31 + r * 17) % 1000) / 100.0;
        incumbent.publish_certified(value, t);
        incumbent.publish_lower_bound(1.0 / value);
        incumbent.publish_scatter_ub(value + 1.0);
        IncumbentSnapshot snap = incumbent.freeze();
        // Monotone invariants must hold in every observed snapshot.
        if (snap.best_certified > value ||
            snap.proven_lb < 1.0 / value - 1e-15 ||
            snap.scatter_ub > value + 1.0) {
          observed_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(observed_violations.load(), 0);
  EXPECT_DOUBLE_EQ(incumbent.best_certified(), 1.0);   // min over all values
  EXPECT_DOUBLE_EQ(incumbent.scatter_ub(), 2.0);
  EXPECT_DOUBLE_EQ(incumbent.proven_lb(), 1.0 / 1.0);  // max of 1/value
}

// ------------------------------------------------------ differential suite

TEST(PruningDifferential, DeterministicMatchesOffOnTheGoldenCorpus) {
  std::vector<core::MulticastProblem> corpus = golden_corpus();

  // Reference: blind portfolio, inline.
  std::vector<PortfolioResult> blind;
  for (const auto& problem : corpus) {
    PortfolioOptions options;
    options.pruning = PruningPolicy::Off;
    blind.push_back(solve_portfolio(problem, options));
    ASSERT_TRUE(blind.back().ok);
  }

  for (int threads : {1, 2, 8}) {
    PortfolioEngine engine(
        engine_options(threads, PruningPolicy::Deterministic));
    std::vector<PortfolioResult> pruned = engine.solve_batch(corpus);
    ASSERT_EQ(pruned.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      const PortfolioResult& off = blind[i];
      const PortfolioResult& det = pruned[i];
      ASSERT_TRUE(det.ok) << "instance " << i << ", " << threads
                          << " threads";
      // Bit-identical winner and period — the Deterministic guarantee.
      EXPECT_EQ(det.period, off.period)
          << "instance " << i << ", " << threads << " threads";
      EXPECT_EQ(det.winner, off.winner)
          << "instance " << i << ", " << threads << " threads";
      // A pruned candidate is never the winner, and the winner's
      // certificate (certification note and certified value) must be
      // untouched by pruning.
      ASSERT_EQ(det.candidates.size(), off.candidates.size());
      for (size_t c = 0; c < det.candidates.size(); ++c) {
        if (det.candidates[c].state == CandidateState::Skipped &&
            is_pruned(det.candidates[c].skip_reason)) {
          EXPECT_NE(det.candidates[c].strategy, det.winner)
              << "instance " << i << ", " << threads << " threads";
        }
        if (off.candidates[c].strategy != off.winner) continue;
        EXPECT_EQ(det.candidates[c].state, CandidateState::Certified);
        EXPECT_EQ(det.candidates[c].period, off.candidates[c].period);
        EXPECT_EQ(det.candidates[c].detail, off.candidates[c].detail);
      }
    }
  }
}

TEST(PruningDifferential, DeterministicCandidatesIdenticalAcrossThreads) {
  std::vector<core::MulticastProblem> corpus = golden_corpus();
  std::vector<std::vector<PortfolioResult>> runs;
  for (int threads : {1, 2, 8}) {
    PortfolioEngine engine(
        engine_options(threads, PruningPolicy::Deterministic));
    runs.push_back(engine.solve_batch(corpus));
  }
  const auto& reference = runs[0];
  for (size_t run = 1; run < runs.size(); ++run) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      const PortfolioResult& a = reference[i];
      const PortfolioResult& b = runs[run][i];
      EXPECT_EQ(a.period, b.period) << "instance " << i;
      EXPECT_EQ(a.winner, b.winner) << "instance " << i;
      ASSERT_EQ(a.candidates.size(), b.candidates.size());
      for (size_t c = 0; c < a.candidates.size(); ++c) {
        // Candidate-level bit-identity, including which ones were pruned
        // and why: Deterministic decisions read barrier-fenced snapshots
        // only, so thread count must not matter.
        EXPECT_EQ(a.candidates[c].state, b.candidates[c].state)
            << "instance " << i << " candidate " << c;
        EXPECT_EQ(a.candidates[c].skip_reason, b.candidates[c].skip_reason)
            << "instance " << i << " candidate " << c;
        EXPECT_EQ(a.candidates[c].period, b.candidates[c].period)
            << "instance " << i << " candidate " << c;
        EXPECT_EQ(a.candidates[c].prune.probes_skipped,
                  b.candidates[c].prune.probes_skipped)
            << "instance " << i << " candidate " << c;
      }
      EXPECT_EQ(a.pruning.strategies_pruned, b.pruning.strategies_pruned)
          << "instance " << i;
      EXPECT_EQ(a.pruning.early_win_cancels, b.pruning.early_win_cancels)
          << "instance " << i;
    }
  }
}

// ------------------------------------------------------------ sound cuts

TEST(Pruning, ScatterDominanceSkipsThePlatformHeuristics) {
  // Dense multi-target instance: the tree heuristics beat the scatter
  // bound by a wide margin (scatter serves every target a distinct copy),
  // so both platform heuristics — certified via scatter on a reduced
  // platform, which is monotonically no better — are provably dominated.
  core::MulticastProblem problem = dense_instance(1);

  PortfolioOptions off;
  off.pruning = PruningPolicy::Off;
  PortfolioResult blind = solve_portfolio(problem, off);
  ASSERT_TRUE(blind.ok);

  PortfolioOptions det;
  det.pruning = PruningPolicy::Deterministic;
  PortfolioResult pruned = solve_portfolio(problem, det);
  ASSERT_TRUE(pruned.ok);

  EXPECT_EQ(pruned.period, blind.period);
  EXPECT_EQ(pruned.winner, blind.winner);
  EXPECT_GT(pruned.pruning.strategies_pruned, 0);
  bool saw_dominated_platform = false;
  for (const CandidateOutcome& c : pruned.candidates) {
    if ((c.strategy == Strategy::ReducedBroadcast ||
         c.strategy == Strategy::AugmentedMulticast) &&
        c.state == CandidateState::Skipped &&
        c.skip_reason == SkipReason::Dominated) {
      saw_dominated_platform = true;
    }
  }
  EXPECT_TRUE(saw_dominated_platform);
  // The blind run proves the cut sound on this instance: both platform
  // heuristics certified strictly worse than the winner.
  for (const CandidateOutcome& c : blind.candidates) {
    if (c.strategy == Strategy::ReducedBroadcast ||
        c.strategy == Strategy::AugmentedMulticast) {
      ASSERT_EQ(c.state, CandidateState::Certified);
      EXPECT_GT(c.period, blind.period);
    }
  }
}

TEST(Pruning, EarlyWinStopsTheRaceOnAStar) {
  // Star platform: every target hangs directly off the source, so the
  // one-port emission bound (= Multicast-LB) is achieved by the trivial
  // tree. Once mcph certifies at that bound, nothing later in launch
  // order can strictly beat it — the whole expensive tail is cancelled.
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  core::MulticastProblem problem(g, 0, {1, 2, 3});

  PortfolioOptions det;
  det.pruning = PruningPolicy::Deterministic;
  // A caller-proven bound (the emission LB) makes the early-win cut
  // independent of LP bit-exactness on this platform.
  det.known_lower_bound = 3.0;
  PortfolioResult result = solve_portfolio(problem, det);
  ASSERT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.period, 3.0);
  EXPECT_EQ(result.winner, Strategy::Mcph);
  EXPECT_GT(result.pruning.early_win_cancels, 0);
  for (const CandidateOutcome& c : result.candidates) {
    if (strategy_stage(c.strategy) > 0) {
      EXPECT_EQ(c.state, CandidateState::Skipped)
          << strategy_name(c.strategy);
      EXPECT_EQ(c.skip_reason, SkipReason::EarlyWin)
          << strategy_name(c.strategy);
    }
  }

  // Same result, same winner, without the hint (the LB probe proves the
  // bound) and with pruning off (nothing can beat the emission bound).
  PortfolioOptions off;
  off.pruning = PruningPolicy::Off;
  PortfolioResult blind = solve_portfolio(problem, off);
  ASSERT_TRUE(blind.ok);
  EXPECT_EQ(result.period, blind.period);
  EXPECT_EQ(result.winner, blind.winner);
}

TEST(Pruning, ProbeDerivedBoundFiresEarlyWinWithoutAHint) {
  // Regression for the dead early_win_cancels counter: the LB probe used
  // to publish its bound deflated by a 1e-7 relative safety margin, so a
  // strategy certifying exactly AT the bound could never satisfy
  // `best_certified <= proven_lb` and the cut was unreachable without a
  // caller-supplied known_lower_bound. The hunted corpus instances were
  // selected because a tree heuristic certifies at the probe's bound —
  // with the raw bound published, the cut must fire on at least one.
  std::vector<core::MulticastProblem> corpus = golden_corpus();
  int early_win_cancels = 0;
  for (const auto& problem : corpus) {
    PortfolioOptions det;
    det.pruning = PruningPolicy::Deterministic;  // no known_lower_bound hint
    PortfolioResult pruned = solve_portfolio(problem, det);
    ASSERT_TRUE(pruned.ok);
    early_win_cancels += pruned.pruning.early_win_cancels;

    // The cut stays sound: identical answer with pruning off.
    PortfolioOptions off;
    off.pruning = PruningPolicy::Off;
    PortfolioResult blind = solve_portfolio(problem, off);
    ASSERT_TRUE(blind.ok);
    EXPECT_EQ(pruned.period, blind.period);
    EXPECT_EQ(pruned.winner, blind.winner);
  }
  EXPECT_GT(early_win_cancels, 0)
      << "the probe-derived lower bound never triggered an early win on "
         "the whole golden corpus — the raw-LB publication regressed";
}

TEST(Pruning, DominatedHeuristicsSkipTheirRemainingProbes) {
  // Regression for the dead probes_skipped counter: the LP heuristics
  // only polled the incumbent BEFORE the first probe, so a dominance or
  // early-win verdict arriving mid-sequence never cancelled the remaining
  // probes. With the between-probe poll in place, at least one corpus
  // instance must record skipped probes — and the kept partial result
  // must not perturb the certified answer.
  std::vector<core::MulticastProblem> corpus = golden_corpus();
  int probes_skipped = 0;
  for (const auto& problem : corpus) {
    PortfolioOptions det;
    det.pruning = PruningPolicy::Deterministic;
    PortfolioResult pruned = solve_portfolio(problem, det);
    ASSERT_TRUE(pruned.ok);
    probes_skipped += pruned.pruning.probes_skipped;
    // Abandoning probes mid-sequence keeps the partial result (it may even
    // win, when the skip came from LB convergence) — it must never turn a
    // strategy into a Failed outcome.
    for (const CandidateOutcome& c : pruned.candidates) {
      if (c.prune.probes_skipped > 0) {
        EXPECT_NE(c.state, CandidateState::Failed) << strategy_name(c.strategy);
      }
    }
  }
  EXPECT_GT(probes_skipped, 0)
      << "no heuristic ever abandoned its probe sequence on the whole "
         "golden corpus — the between-probe incumbent poll regressed";
}

TEST(Pruning, KnownLowerBoundRidesTheRequestThroughTheEngine) {
  core::MulticastProblem problem = dense_instance(3);
  PortfolioOptions off;
  off.pruning = PruningPolicy::Off;
  PortfolioResult blind = solve_portfolio(problem, off);
  ASSERT_TRUE(blind.ok);

  // The blind winner's period is the true portfolio answer; feeding it
  // back as a proven bound must keep the answer identical (early-win may
  // prune the tail, never the winner).
  PortfolioEngine engine(engine_options(2, PruningPolicy::Deterministic));
  RequestOptions request;
  request.known_lower_bound = blind.period;
  PortfolioResult result = engine.solve(problem, request);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.period, blind.period);
  EXPECT_GE(result.pruning.proven_lb, blind.period);
}

}  // namespace
}  // namespace pmcast::runtime
