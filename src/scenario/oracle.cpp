#include "scenario/oracle.hpp"

#include <sstream>

#include "runtime/engine.hpp"

namespace pmcast::scenario {
namespace {

using runtime::CandidateOutcome;
using runtime::CandidateState;
using runtime::Strategy;

/// a <= b up to the relative tolerance (scale-aware, absolute floor for
/// values near zero).
bool leq(double a, double b, double rel_tol) {
  return a <= b + rel_tol * std::max({1.0, a, b});
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  os << (ok ? "ok" : "VIOLATED");
  os.precision(4);
  os << " gap=" << gap << " certified=" << certified << "/"
     << (certified + failed + skipped);
  if (!violations.empty()) {
    os << " [" << violations[0].check << ": " << violations[0].detail << "]";
  }
  return os.str();
}

OracleReport cross_check(const core::MulticastProblem& problem,
                         const runtime::PortfolioResult& result,
                         const OracleOptions& options) {
  OracleReport report;
  report.portfolio = result;
  auto violate = [&](const char* check, const std::string& detail) {
    report.violations.push_back({check, detail});
  };

  if (!problem.feasible()) {
    violate("infeasible", "a target is unreachable from the source");
    return report;
  }

  core::FlowSolution lb =
      core::solve_multicast_lb(problem, core::FormulationOptions{options.lp});
  if (!lb.ok()) {
    violate("lb_failed", "Multicast-LB did not reach optimality");
  } else {
    report.lower_bound = lb.period;
  }

  const CandidateOutcome* exact = nullptr;
  const CandidateOutcome* multicast_ub = nullptr;
  for (const CandidateOutcome& c : result.candidates) {
    switch (c.state) {
      case CandidateState::Certified: {
        ++report.certified;
        // Invariant 1: certified period >= LP lower bound.
        if (lb.ok() && !leq(lb.period, c.period, options.rel_tol)) {
          violate("lb_ordering",
                  std::string(strategy_name(c.strategy)) + " period " +
                      fmt(c.period) + " beats the LP lower bound " +
                      fmt(lb.period));
        }
        if (c.strategy == Strategy::Exact) {
          exact = &c;
          report.exact_certified = true;
          report.exact_period = c.period;
        }
        if (c.strategy == Strategy::MulticastUb) multicast_ub = &c;
        break;
      }
      case CandidateState::Failed:
        ++report.failed;
        // Invariant 4: on a feasible platform every strategy must either
        // certify or declare itself inapplicable (Skipped).
        if (!options.allow_failures) {
          violate("strategy_failed",
                  std::string(strategy_name(c.strategy)) + ": " + c.detail);
        }
        break;
      case CandidateState::Skipped:
        ++report.skipped;
        break;
    }
  }

  // Invariant 2: the exact COMPACT-WEIGHTED-MULTICAST optimum dominates
  // every certified single-tree strategy. Flow/scatter strategies are
  // exempt: they may split and reassemble messages per target, which the
  // compact model forbids, and genuinely beat the tree optimum.
  if (exact != nullptr) {
    for (const CandidateOutcome& c : result.candidates) {
      if (c.state != CandidateState::Certified) continue;
      bool single_tree = c.strategy == Strategy::Mcph ||
                         c.strategy == Strategy::PrunedDijkstra ||
                         c.strategy == Strategy::Kmb;
      if (!single_tree) continue;
      if (!leq(exact->period, c.period, options.rel_tol)) {
        violate("exact_dominance",
                std::string("exact period ") + fmt(exact->period) +
                    " worse than " + strategy_name(c.strategy) + " " +
                    fmt(c.period));
      }
    }
  }

  // Invariant 3: UB <= |Ptarget| * LB (Fig. 5).
  if (multicast_ub != nullptr && lb.ok()) {
    double cap = static_cast<double>(problem.target_count()) * lb.period;
    if (!leq(multicast_ub->period, cap, options.rel_tol)) {
      violate("ub_factor", "multicast_ub period " + fmt(multicast_ub->period) +
                               " exceeds |Ptarget| * LB = " + fmt(cap));
    }
  }

  // Invariant 5: somebody certified.
  if (!result.ok) {
    violate("no_certified", "no strategy produced a certified period");
  } else {
    report.best_period = result.period;
    if (report.lower_bound > 0.0) {
      report.gap = report.best_period / report.lower_bound;
    }
  }

  report.ok = report.violations.empty() && result.ok;
  return report;
}

OracleReport cross_check(const core::MulticastProblem& problem,
                         const OracleOptions& options) {
  // The oracle's whole point is differential coverage of every strategy;
  // cooperative pruning would legitimately skip dominated ones, so the
  // oracle's own portfolio runs blind. Precomputed results passed to the
  // other overload keep whatever policy produced them.
  runtime::PortfolioOptions portfolio = options.portfolio;
  portfolio.pruning = runtime::PruningPolicy::Off;
  runtime::PortfolioResult result =
      runtime::solve_portfolio(problem, portfolio);
  return cross_check(problem, result, options);
}

}  // namespace pmcast::scenario
