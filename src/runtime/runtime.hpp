#pragma once
/// \file runtime.hpp
/// Umbrella header for the pmcast::runtime subsystem — the concurrent
/// solver-portfolio engine.
///
///   ThreadPool       — work-stealing pool (thread_pool.hpp)
///   SolveBudget / CancellationToken — budget control (budget.hpp)
///   Strategy / run_strategy — one certified solver step (portfolio.hpp)
///   Incumbent / PruningPolicy — shared bounds + cooperative pruning of
///                      provably-dominated work (incumbent.hpp)
///   ResultCache      — sharded LRU over canonical instance keys (cache.hpp)
///   PortfolioEngine / solve_portfolio — the race driver: cache probe,
///                      request coalescing, staged strategy fan-out, and
///                      the blocking one-instance call (engine.hpp)
///   Tracer / TraceSummary — always-on tracing/profiling: cut-predicate
///                      accounting, checkpoint latency, timelines (trace.hpp)
///
/// Quickstart:
///   runtime::PortfolioEngine engine({.threads = 8});
///   runtime::PortfolioResult r = engine.solve(problem);
///   if (r.ok) use(r.period);  // certificate-validated
/// See DESIGN_RUNTIME.md for the architecture notes.

#include "runtime/budget.hpp"
#include "runtime/cache.hpp"
#include "runtime/engine.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"
