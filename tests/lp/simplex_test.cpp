#include "lp/simplex.hpp"

#include <gtest/gtest.h>

namespace pmcast::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Simplex, TrivialBoundsOnly) {
  // min x subject to 2 <= x <= 5.
  Model m;
  m.add_variable(2.0, 5.0, 1.0);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, 2.0, kTol);
}

TEST(Simplex, ClassicTwoVarMax) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.  Optimum: x=4,y=0 ->12.
  Model m(Sense::Maximize);
  int x = m.add_variable(0, kInf, 3);
  int y = m.add_variable(0, kInf, 2);
  int r1 = m.add_row_le(4);
  int r2 = m.add_row_le(6);
  m.add_entry(r1, x, 1);
  m.add_entry(r1, y, 1);
  m.add_entry(r2, x, 1);
  m.add_entry(r2, y, 3);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, 12.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)], 4.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<size_t>(y)], 0.0, kTol);
}

TEST(Simplex, EqualityConstraintNeedsPhase1) {
  // min x + y s.t. x + y = 3, x - y = 1  ->  x=2, y=1, obj=3.
  Model m;
  int x = m.add_variable(0, kInf, 1);
  int y = m.add_variable(0, kInf, 1);
  int r1 = m.add_row_eq(3);
  int r2 = m.add_row_eq(1);
  m.add_entry(r1, x, 1);
  m.add_entry(r1, y, 1);
  m.add_entry(r2, x, 1);
  m.add_entry(r2, y, -1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, 3.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<size_t>(y)], 1.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  // x >= 0, x <= -1 via rows.
  Model m;
  int x = m.add_variable(0, kInf, 1);
  int r = m.add_row_le(-1);
  m.add_entry(r, x, 1);
  auto sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  // x + y = 1, x + y = 2.
  Model m;
  int x = m.add_variable(0, kInf, 0);
  int y = m.add_variable(0, kInf, 0);
  int r1 = m.add_row_eq(1);
  int r2 = m.add_row_eq(2);
  m.add_entry(r1, x, 1);
  m.add_entry(r1, y, 1);
  m.add_entry(r2, x, 1);
  m.add_entry(r2, y, 1);
  auto sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // max x, x >= 0, no row limits x.
  Model m(Sense::Maximize);
  m.add_variable(0, kInf, 1);
  m.add_row_le(10);  // empty row, irrelevant
  auto sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::Unbounded);
}

TEST(Simplex, RangeRow) {
  // min x s.t. 2 <= 2x <= 6  -> x = 1.
  Model m;
  int x = m.add_variable(0, kInf, 1);
  int r = m.add_row(2, 6);
  m.add_entry(r, x, 2);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, 1.0, kTol);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y, x >= -5, y >= -3, x + y >= -6 -> optimum -6.
  Model m;
  int x = m.add_variable(-5, kInf, 1);
  int y = m.add_variable(-3, kInf, 1);
  int r = m.add_row_ge(-6);
  m.add_entry(r, x, 1);
  m.add_entry(r, y, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, -6.0, kTol);
}

TEST(Simplex, FreeVariable) {
  // min y s.t. y >= x - 4, y >= -x, x free, y free. Optimum at x=2, y=-2.
  Model m;
  int x = m.add_variable(-kInf, kInf, 0);
  int y = m.add_variable(-kInf, kInf, 1);
  int r1 = m.add_row_le(4);   // x - y <= 4
  int r2 = m.add_row_ge(0);   // x + y >= 0
  m.add_entry(r1, x, 1);
  m.add_entry(r1, y, -1);
  m.add_entry(r2, x, 1);
  m.add_entry(r2, y, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, -2.0, kTol);
}

TEST(Simplex, DegenerateTransportation) {
  // Degenerate assignment-like LP: min sum costs, supplies = demands = 1.
  // 3 sources, 3 sinks, cost matrix with ties everywhere.
  Model m;
  std::vector<std::vector<int>> x(3, std::vector<int>(3));
  double cost[3][3] = {{1, 2, 3}, {2, 1, 2}, {3, 2, 1}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_variable(0, kInf, cost[i][j]);
  for (int i = 0; i < 3; ++i) {
    int r = m.add_row_eq(1);
    for (int j = 0; j < 3; ++j) m.add_entry(r, x[i][j], 1);
  }
  for (int j = 0; j < 3; ++j) {
    int r = m.add_row_eq(1);
    for (int i = 0; i < 3; ++i) m.add_entry(r, x[i][j], 1);
  }
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, 3.0, kTol);  // pick the diagonal
}

TEST(Simplex, DualValuesSatisfyStrongDuality) {
  // min 2x + 3y s.t. x + y >= 4, x >= 0, y >= 0 -> x=4, obj 8; dual y1 = 2.
  Model m;
  int x = m.add_variable(0, kInf, 2);
  int y = m.add_variable(0, kInf, 3);
  int r = m.add_row_ge(4);
  m.add_entry(r, x, 1);
  m.add_entry(r, y, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 8.0, kTol);
  EXPECT_NEAR(sol.dual[static_cast<size_t>(r)], 2.0, kTol);
}

TEST(Simplex, RowActivityReported) {
  Model m(Sense::Maximize);
  int x = m.add_variable(0, 3, 1);
  int r = m.add_row_le(10);
  m.add_entry(r, x, 2);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.row_value[static_cast<size_t>(r)], 6.0, kTol);
}

TEST(Simplex, BadlyScaledProblem) {
  // min x + 1e6 y s.t. 1e-4 x + y = 1, x <= 1000 -> y = 1 - 1e-4 x;
  // obj = x + 1e6 - 100 x = 1e6 - 99x -> x = 1000, obj = 901000.
  Model m;
  int x = m.add_variable(0, 1000, 1);
  int y = m.add_variable(0, kInf, 1e6);
  int r = m.add_row_eq(1);
  m.add_entry(r, x, 1e-4);
  m.add_entry(r, y, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << to_string(sol.status);
  EXPECT_NEAR(sol.objective, 901000.0, 1.0);
}

TEST(Simplex, FixedVariableRespected) {
  Model m;
  int x = m.add_variable(2, 2, 5);  // fixed at 2
  int y = m.add_variable(0, kInf, 1);
  int r = m.add_row_ge(5);
  m.add_entry(r, x, 1);
  m.add_entry(r, y, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(sol.x[static_cast<size_t>(y)], 3.0, kTol);
}

TEST(Simplex, MaximizeWithUpperBoundsOnly) {
  // max x + y, x <= 2, y <= 5 (vars bounded above, no rows).
  Model m(Sense::Maximize);
  m.add_variable(0, 2, 1);
  m.add_variable(0, 5, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 7.0, kTol);
}

TEST(Simplex, EmptyObjectiveFeasibilityProblem) {
  Model m;
  int x = m.add_variable(0, kInf, 0);
  int r = m.add_row_eq(7);
  m.add_entry(r, x, 1);
  auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)], 7.0, kTol);
}

// A model the solver needs plenty of pivots on: a chained assignment-like
// program whose phase 1 + phase 2 comfortably exceed several checkpoint
// intervals, so interruption semantics can be observed mid-solve.
Model checkpoint_workout(int n) {
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < n * n; ++i) {
    vars.push_back(m.add_variable(0, kInf, ((i * 7919) % 97) + 1.0));
  }
  for (int i = 0; i < n; ++i) {
    int row = m.add_row_eq(1.0);
    for (int j = 0; j < n; ++j) m.add_entry(row, vars[i * n + j], 1.0);
    int col = m.add_row_eq(1.0);
    for (int j = 0; j < n; ++j) m.add_entry(col, vars[j * n + i], 1.0);
  }
  return m;
}

TEST(SimplexCheckpoint, AbortStopsWithinOneInterval) {
  Model m = checkpoint_workout(24);
  SolverOptions options;
  options.checkpoint_every = 16;
  int polls = 0;
  options.checkpoint = [&polls]() {
    return ++polls >= 3 ? CheckpointAction::Abort
                        : CheckpointAction::Continue;
  };
  auto sol = solve(m, options);
  EXPECT_EQ(sol.status, SolveStatus::Aborted);
  EXPECT_EQ(polls, 3);
  // Stopped within one checkpoint interval of the Abort verdict. The poll
  // countdown restarts at the phase-1/phase-2 boundary, so allow one extra
  // interval of slack on top of the three polled ones.
  EXPECT_LE(sol.iterations, 4 * options.checkpoint_every + 1);
}

TEST(SimplexCheckpoint, ContinueVerdictsDoNotPerturbTheSolve) {
  Model m = checkpoint_workout(16);
  auto plain = solve(m);
  ASSERT_TRUE(plain.optimal());

  SolverOptions options;
  options.checkpoint_every = 8;
  int polls = 0;
  options.checkpoint = [&polls]() {
    ++polls;
    return CheckpointAction::Continue;
  };
  auto watched = solve(m, options);
  ASSERT_TRUE(watched.optimal());
  EXPECT_GT(polls, 0);
  // Same trajectory: the checkpoint is an observer, not a participant.
  EXPECT_EQ(watched.iterations, plain.iterations);
  EXPECT_DOUBLE_EQ(watched.objective, plain.objective);
}

}  // namespace
}  // namespace pmcast::lp
