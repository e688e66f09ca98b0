#pragma once
/// \file simplex_impl.hpp
/// The PFI simplex engine behind lp::solve() and lp::IncrementalSimplex.
/// Internal header: the class keeps mutable factorisation state (the eta
/// file) alive between solves, which is what the warm-start layer
/// (lp/resolve.hpp) trades on. Everything here assumes single-threaded use
/// of one instance; distinct instances are independent.
///
/// Solve modes, in decreasing order of reuse:
///  * cold        — ctor + run(): logical basis, fresh factorisation;
///  * basis warm  — ctor + load_basis() + run(): adopt a Basis snapshot
///    from a previous solve of a same-shape model, refactorise (with the
///    standard repair of dependent columns), then iterate;
///  * eta reuse   — refresh_data() + run() on a live instance whose model
///    kept the exact same constraint entries: bounds/costs are reloaded in
///    place, the basis *and* the eta file survive, and the next solve
///    starts from the previous optimal point with zero refactorisation.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <tuple>
#include <vector>

#include "lp/simplex.hpp"
#include "lp/sparse.hpp"

namespace pmcast::lp::detail {

inline constexpr double kDropTol = 1e-11;  // eta entries below this dropped

enum VarStatus : signed char {
  kNonbasicLower = 0,
  kNonbasicUpper = 1,
  kBasic = 2,
  kNonbasicFree = 3,
};

/// Product-form eta: the basis changed by replacing the column pivoted at
/// row r with a column whose FTRANed image is (val at idx, pivot at r).
struct Eta {
  int r = -1;
  double pivot = 0.0;
  std::vector<int> idx;   // excludes r
  std::vector<double> val;
};

class Simplex {
 public:
  Simplex(const Model& model, const SolverOptions& opt);

  /// Solve from the current state. The first call on a fresh instance runs
  /// cold from the logical basis; after load_basis()/refresh_data() it
  /// continues from the adopted/previous point. Solution::iterations counts
  /// this call only.
  Solution run(const Model& model);

  /// Adopt \p basis (statuses for n structurals then m logicals) and
  /// refactorise, repairing numerically dependent columns. Returns false —
  /// leaving the instance unusable, caller must fall back cold — when the
  /// snapshot has the wrong shape or refactorisation fails outright.
  bool load_basis(const Basis& basis);

  /// Export the current basis statuses (valid after a run()).
  Basis basis() const;

  /// Reload bounds and objective from \p model, which must have the exact
  /// same entries/sense as the model this instance was built with. Keeps
  /// the basis and the eta file; nonbasic variables are re-seated on their
  /// (possibly moved) bounds and basic values recomputed through the
  /// existing factorisation.
  void refresh_data(const Model& model);

  /// Absorb the columns \p model gained (via Model::add_column) since this
  /// engine was built or last appended. The internal index layout keeps
  /// structurals in [0, n) — logicals shift up — but the eta file
  /// references row positions only, so the factorisation survives
  /// untouched and the very next solve is an eta-reuse warm start. New
  /// columns enter nonbasic at a finite bound. Returns false (engine
  /// unchanged, caller rebuilds cold) when the model's rows changed, its
  /// variable count shrank, or new entries touch pre-existing columns.
  bool append_columns(const Model& model);

 private:
  void build(const Model& model);
  void compute_scaling();
  void load_bounds_and_costs(const Model& model);
  void reset_to_logical_basis();

  // --- basis linear algebra (PFI) ---
  void ftran(std::vector<double>& v) const {
    for (const Eta& e : etas_) {
      double t = v[static_cast<size_t>(e.r)];
      if (t == 0.0) continue;
      t /= e.pivot;
      v[static_cast<size_t>(e.r)] = t;
      const size_t k = e.idx.size();
      for (size_t i = 0; i < k; ++i) {
        v[static_cast<size_t>(e.idx[i])] -= e.val[i] * t;
      }
    }
  }
  void btran(std::vector<double>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const Eta& e = *it;
      double t = y[static_cast<size_t>(e.r)];
      const size_t k = e.idx.size();
      for (size_t i = 0; i < k; ++i) {
        t -= e.val[i] * y[static_cast<size_t>(e.idx[i])];
      }
      y[static_cast<size_t>(e.r)] = t / e.pivot;
    }
  }

  /// Sparse FTRAN: same arithmetic as ftran() — each eta is skipped when
  /// v[e.r] == 0.0, so results are bit-equal — but every position written
  /// is recorded in \p pat (deduplicated via \p mark), sparing callers the
  /// O(m) zero scan afterwards. The pattern is a superset of the true
  /// nonzeros (cancellations stay listed) and comes out unsorted; callers
  /// whose downstream scans are order-sensitive must sort it first.
  void ftran_sparse(std::vector<double>& v, std::vector<int>& pat,
                    std::vector<char>& mark) const {
    for (const Eta& e : etas_) {
      double t = v[static_cast<size_t>(e.r)];
      if (t == 0.0) continue;
      t /= e.pivot;
      v[static_cast<size_t>(e.r)] = t;
      const size_t k = e.idx.size();
      for (size_t i = 0; i < k; ++i) {
        auto p = static_cast<size_t>(e.idx[i]);
        v[p] -= e.val[i] * t;
        if (!mark[p]) {
          mark[p] = 1;
          pat.push_back(e.idx[i]);
        }
      }
    }
  }

  // Column access: structural j < n_ is a CSC slice of mat_; logical
  // j >= n_ is the singleton -e_{j - n_} (never materialised).
  void scatter_column(int var, std::vector<double>& dense) const {
    if (var >= n_) {
      dense[static_cast<size_t>(var - n_)] += -1.0;
      return;
    }
    for (std::int64_t k = mat_.col_begin(var); k < mat_.col_end(var); ++k) {
      dense[static_cast<size_t>(mat_.row(k))] += mat_.value(k);
    }
  }

  /// scatter_column that also records the touched positions in pat/mark —
  /// the seed pattern for ftran_sparse.
  void scatter_column_pattern(int var, std::vector<double>& dense,
                              std::vector<int>& pat,
                              std::vector<char>& mark) const {
    auto touch = [&](int i, double v) {
      auto p = static_cast<size_t>(i);
      dense[p] += v;
      if (!mark[p]) {
        mark[p] = 1;
        pat.push_back(i);
      }
    };
    if (var >= n_) {
      touch(var - n_, -1.0);
      return;
    }
    for (std::int64_t k = mat_.col_begin(var); k < mat_.col_end(var); ++k) {
      touch(mat_.row(k), mat_.value(k));
    }
  }

  double dot_column(int var, const std::vector<double>& y) const {
    if (var >= n_) return -y[static_cast<size_t>(var - n_)];
    double s = 0.0;
    for (std::int64_t k = mat_.col_begin(var); k < mat_.col_end(var); ++k) {
      s += mat_.value(k) * y[static_cast<size_t>(mat_.row(k))];
    }
    return s;
  }

  std::size_t col_nnz(int var) const {
    return var >= n_ ? 1 : mat_.col_nnz(var);
  }

  bool reinvert();
  void compute_basic_values();
  double total_infeasibility() const;

  // --- iteration machinery ---
  struct Pricing {
    int var = -1;
    int direction = 0;  // +1 increase, -1 decrease
    double score = 0.0;
  };
  Pricing price(const std::vector<double>& y, bool phase1) const;

  struct Ratio {
    bool unbounded = false;
    bool bound_flip = false;
    int leave_pos = -1;
    double step = 0.0;
    signed char leave_status = kNonbasicLower;  // bound the leaver lands on
  };
  /// \p pat: sorted nonzero pattern of w, or nullptr for the dense
  /// reference scan (SolverOptions::sparse_ftran == false). The sorted
  /// pattern reproduces the dense loop's ascending-row visit order, so
  /// tie-breaking is identical.
  Ratio ratio_test(int enter, int direction, const std::vector<double>& w,
                   bool phase1, const std::vector<int>* pat) const;

  void apply_step(int enter, int direction, const Ratio& r,
                  std::vector<double>& w, const std::vector<int>* pat);

  // Devex (Forrest–Goldfarb) reference-framework weights; only maintained
  // when opt_.pricing == PricingRule::Devex. Called with the pre-pivot
  // basis (before apply_step appends the pivot's eta).
  void update_devex(int enter, int leave_pos, const std::vector<double>& w);
  void reset_devex() { devex_w_.assign(static_cast<size_t>(nt_), 1.0); }

  bool is_fixed(int j) const {
    return ub_[static_cast<size_t>(j)] - lb_[static_cast<size_t>(j)] <
           opt_.feas_tol;
  }

  enum class LoopResult {
    Converged,
    IterLimit,
    Unbounded,
    Numerical,
    Aborted,  // checkpoint said Abort
  };
  LoopResult iterate(bool phase1);

  SolverOptions opt_;
  int m_, n_, nt_;
  double sense_sign_ = 1.0;  // +1 Minimize, -1 Maximize

  CscMatrix mat_;                     // n_ structural columns (scaled);
                                      // logical i = implicit column -e_i
  std::size_t entries_seen_ = 0;      // model entries consumed so far —
                                      // append_columns resumes here
  std::vector<double> lb_, ub_;       // nt_
  std::vector<double> cost_;          // nt_, minimisation costs (scaled)
  std::vector<double> row_scale_, col_scale_;
  std::vector<double> devex_w_;       // nt_ when devex pricing is active

  std::vector<int> basic_;            // m_: var basic at row position p
  std::vector<int> basic_pos_;        // nt_: position or -1
  std::vector<signed char> status_;   // nt_
  std::vector<double> value_;         // nt_

  std::vector<Eta> etas_;
  size_t etas_base_ = 0;
  size_t base_nnz_ = 0;    // eta nnz produced by the last reinversion
  size_t update_nnz_ = 0;  // eta nnz appended by pivots since then

  bool factorized_ = false;  // etas_ invert the current basis

  int iterations_ = 0;
  int max_iters_ = 0;
  int degenerate_run_ = 0;
  bool bland_ = false;
};

}  // namespace pmcast::lp::detail
