#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <tuple>

#include "lp/simplex_impl.hpp"

namespace pmcast::lp {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
    case SolveStatus::Numerical: return "numerical";
    case SolveStatus::Aborted: return "aborted";
  }
  return "?";
}

namespace detail {

Simplex::Simplex(const Model& model, const SolverOptions& opt)
    : opt_(opt),
      m_(model.num_rows()),
      n_(model.num_vars()),
      nt_(m_ + n_) {
  build(model);
}

void Simplex::build(const Model& model) {
  sense_sign_ = (model.sense() == Sense::Minimize) ? 1.0 : -1.0;

  lb_.resize(static_cast<size_t>(nt_));
  ub_.resize(static_cast<size_t>(nt_));
  cost_.assign(static_cast<size_t>(nt_), 0.0);

  // Compress the model triplets into CSC (duplicates summed). Logical
  // columns are implicit (-e_i), never stored.
  mat_.clear();
  std::vector<Model::Entry> entries = model.entries();
  entries_seen_ = entries.size();
  CscMatrix::sort_entries(entries);
  mat_.append_sorted(entries, n_);

  row_scale_.assign(static_cast<size_t>(m_), 1.0);
  col_scale_.assign(static_cast<size_t>(n_), 1.0);
  if (opt_.scale) compute_scaling();
  load_bounds_and_costs(model);
  reset_to_logical_basis();

  max_iters_ = opt_.max_iterations > 0 ? opt_.max_iterations
                                       : 20000 + 40 * (m_ + n_);
}

void Simplex::compute_scaling() {
  // Geometric-mean equilibration, two sweeps, O(nnz) per sweep. Depends
  // only on the entry values, so the scales stay valid across
  // refresh_data() reloads. The row pass computes every row factor from
  // the pre-sweep values before touching any entry, then multiplies each
  // entry once — the same products, in the same per-entry order, as the
  // historical row-at-a-time loop, so the scaled matrix is bit-identical.
  const std::int64_t nnz = mat_.nnz();
  std::vector<double> srow(static_cast<size_t>(m_));
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::vector<double> rmin(static_cast<size_t>(m_), kInf);
    std::vector<double> rmax(static_cast<size_t>(m_), 0.0);
    for (std::int64_t k = 0; k < nnz; ++k) {
      double a = std::fabs(mat_.value(k));
      auto r = static_cast<size_t>(mat_.row(k));
      rmin[r] = std::min(rmin[r], a);
      rmax[r] = std::max(rmax[r], a);
    }
    for (int i = 0; i < m_; ++i) {
      auto si = static_cast<size_t>(i);
      srow[si] = 1.0;
      if (rmax[si] <= 0.0) continue;
      double s = 1.0 / std::sqrt(rmin[si] * rmax[si]);
      if (!std::isfinite(s) || s <= 0.0) continue;
      row_scale_[si] *= s;
      srow[si] = s;
    }
    for (std::int64_t k = 0; k < nnz; ++k) {
      mat_.value_ref(k) *= srow[static_cast<size_t>(mat_.row(k))];
    }
    for (int j = 0; j < n_; ++j) {
      double cmin = kInf, cmax = 0.0;
      for (std::int64_t k = mat_.col_begin(j); k < mat_.col_end(j); ++k) {
        double a = std::fabs(mat_.value(k));
        cmin = std::min(cmin, a);
        cmax = std::max(cmax, a);
      }
      if (cmax <= 0.0) continue;
      double s = 1.0 / std::sqrt(cmin * cmax);
      if (!std::isfinite(s) || s <= 0.0) continue;
      col_scale_[static_cast<size_t>(j)] *= s;
      for (std::int64_t k = mat_.col_begin(j); k < mat_.col_end(j); ++k) {
        mat_.value_ref(k) *= s;
      }
    }
  }
}

void Simplex::load_bounds_and_costs(const Model& model) {
  // Substitution x_j = col_scale_j * x'_j with every row multiplied by its
  // scale: variable bounds shrink by the column scale, costs grow by it;
  // logical bounds grow by the row scale.
  sense_sign_ = (model.sense() == Sense::Minimize) ? 1.0 : -1.0;
  for (int j = 0; j < n_; ++j) {
    auto sj = static_cast<size_t>(j);
    double s = col_scale_[sj];
    double lo = model.var_lb(j), hi = model.var_ub(j);
    lb_[sj] = std::isfinite(lo) ? lo / s : lo;
    ub_[sj] = std::isfinite(hi) ? hi / s : hi;
    cost_[sj] = sense_sign_ * model.obj(j) * s;
  }
  for (int i = 0; i < m_; ++i) {
    auto si = static_cast<size_t>(i);
    auto j = static_cast<size_t>(n_ + i);
    double s = row_scale_[si];
    double lo = model.row_lo(i), hi = model.row_hi(i);
    lb_[j] = std::isfinite(lo) ? lo * s : lo;
    ub_[j] = std::isfinite(hi) ? hi * s : hi;
  }
}

void Simplex::reset_to_logical_basis() {
  // Initial point: structurals nonbasic at a finite bound, logicals basic.
  status_.assign(static_cast<size_t>(nt_), kNonbasicLower);
  value_.assign(static_cast<size_t>(nt_), 0.0);
  basic_pos_.assign(static_cast<size_t>(nt_), -1);
  basic_.resize(static_cast<size_t>(m_));
  for (int j = 0; j < n_; ++j) {
    auto sj = static_cast<size_t>(j);
    if (std::isfinite(lb_[sj])) {
      status_[sj] = kNonbasicLower;
      value_[sj] = lb_[sj];
    } else if (std::isfinite(ub_[sj])) {
      status_[sj] = kNonbasicUpper;
      value_[sj] = ub_[sj];
    } else {
      status_[sj] = kNonbasicFree;
      value_[sj] = 0.0;
    }
  }
  for (int i = 0; i < m_; ++i) {
    int j = n_ + i;
    basic_[static_cast<size_t>(i)] = j;
    basic_pos_[static_cast<size_t>(j)] = i;
    status_[static_cast<size_t>(j)] = kBasic;
  }
  factorized_ = false;
}

bool Simplex::load_basis(const Basis& basis) {
  if (!basis.shaped_for(n_, m_)) return false;
  int basics = 0;
  for (int j = 0; j < nt_; ++j) {
    if (basis.status[static_cast<size_t>(j)] == kBasic) ++basics;
  }
  if (basics != m_) return false;

  status_ = basis.status;
  value_.assign(static_cast<size_t>(nt_), 0.0);
  basic_pos_.assign(static_cast<size_t>(nt_), -1);
  basic_.clear();
  basic_.reserve(static_cast<size_t>(m_));
  for (int j = 0; j < nt_; ++j) {
    auto sj = static_cast<size_t>(j);
    if (status_[sj] == kBasic) {
      basic_pos_[sj] = static_cast<int>(basic_.size());
      basic_.push_back(j);
      continue;
    }
    // Re-seat nonbasics on the current model's bounds; a snapshot status
    // that no longer matches a finite bound degrades gracefully.
    if (status_[sj] == kNonbasicLower && std::isfinite(lb_[sj])) {
      value_[sj] = lb_[sj];
    } else if (status_[sj] == kNonbasicUpper && std::isfinite(ub_[sj])) {
      value_[sj] = ub_[sj];
    } else if (std::isfinite(lb_[sj])) {
      status_[sj] = kNonbasicLower;
      value_[sj] = lb_[sj];
    } else if (std::isfinite(ub_[sj])) {
      status_[sj] = kNonbasicUpper;
      value_[sj] = ub_[sj];
    } else {
      status_[sj] = kNonbasicFree;
      value_[sj] = 0.0;
    }
  }
  if (!reinvert()) return false;
  compute_basic_values();
  return true;
}

Basis Simplex::basis() const {
  Basis out;
  out.status = status_;
  return out;
}

void Simplex::refresh_data(const Model& model) {
  assert(model.num_vars() == n_ && model.num_rows() == m_);
  load_bounds_and_costs(model);
  for (int j = 0; j < nt_; ++j) {
    auto sj = static_cast<size_t>(j);
    if (status_[sj] == kBasic) continue;
    if (status_[sj] == kNonbasicLower && std::isfinite(lb_[sj])) {
      value_[sj] = lb_[sj];
    } else if (status_[sj] == kNonbasicUpper && std::isfinite(ub_[sj])) {
      value_[sj] = ub_[sj];
    } else if (std::isfinite(lb_[sj])) {
      status_[sj] = kNonbasicLower;
      value_[sj] = lb_[sj];
    } else if (std::isfinite(ub_[sj])) {
      status_[sj] = kNonbasicUpper;
      value_[sj] = ub_[sj];
    } else {
      status_[sj] = kNonbasicFree;
      value_[sj] = 0.0;
    }
  }
  if (factorized_) {
    // Basis matrix unchanged (entries identical), eta file still inverts
    // it: only the basic values move with the new nonbasic seats.
    compute_basic_values();
  }
}

bool Simplex::append_columns(const Model& model) {
  if (model.num_rows() != m_ || model.num_vars() < n_) return false;
  const int new_n = model.num_vars();
  const int add = new_n - n_;
  const auto& all = model.entries();
  if (all.size() < entries_seen_) return false;
  // Entries are append-only in a Model, so everything past the high-water
  // mark belongs to the new columns — anything older that changed would
  // have bumped the caller's structure version instead of landing here.
  std::vector<Model::Entry> tail(all.begin() + static_cast<std::ptrdiff_t>(
                                                   entries_seen_),
                                 all.end());
  for (const Model::Entry& e : tail) {
    if (e.var < n_ || e.var >= new_n || e.row < 0 || e.row >= m_) {
      return false;  // touches pre-existing columns: rebuild cold
    }
  }
  if (add == 0) {
    entries_seen_ = all.size();
    return tail.empty();
  }

  // Compress the new columns. Row scales are fixed (they depend on the
  // rows, which did not change); each new column gets one fresh
  // geometric-mean equilibration pass of its own — not the two interleaved
  // sweeps a from-scratch build would run, which only affects
  // conditioning, never the solution.
  CscMatrix::sort_entries(tail);
  for (Model::Entry& e : tail) {
    e.value *= row_scale_[static_cast<size_t>(e.row)];
  }
  const int old_cols = mat_.num_cols();
  mat_.append_sorted(tail, add);
  for (int c = 0; c < add; ++c) {
    const int j = old_cols + c;
    double s = 1.0;
    if (opt_.scale) {
      double cmin = kInf, cmax = 0.0;
      for (std::int64_t k = mat_.col_begin(j); k < mat_.col_end(j); ++k) {
        double a = std::fabs(mat_.value(k));
        cmin = std::min(cmin, a);
        cmax = std::max(cmax, a);
      }
      if (cmax > 0.0) {
        double cand = 1.0 / std::sqrt(cmin * cmax);
        if (std::isfinite(cand) && cand > 0.0) s = cand;
      }
    }
    col_scale_.push_back(s);
    if (s != 1.0) {
      for (std::int64_t k = mat_.col_begin(j); k < mat_.col_end(j); ++k) {
        mat_.value_ref(k) *= s;
      }
    }
  }
  entries_seen_ = all.size();

  // Open `add` structural slots at index n_: the per-variable arrays shift
  // their logical tails up, basic row->var entries pointing at logicals
  // move up with them, and basic_pos_ stays aligned because it is indexed
  // by variable. Keeping structurals-first is load-bearing: Bland's rule
  // and the reinversion orderings break ties by variable index, and
  // renumbering existing variables would perturb pinned pivot sequences.
  auto at = [&](auto& vec) { return vec.begin() + n_; };
  lb_.insert(at(lb_), static_cast<size_t>(add), 0.0);
  ub_.insert(at(ub_), static_cast<size_t>(add), 0.0);
  cost_.insert(at(cost_), static_cast<size_t>(add), 0.0);
  value_.insert(at(value_), static_cast<size_t>(add), 0.0);
  status_.insert(at(status_), static_cast<size_t>(add), kNonbasicLower);
  basic_pos_.insert(at(basic_pos_), static_cast<size_t>(add), -1);
  if (!devex_w_.empty()) {
    devex_w_.insert(devex_w_.begin() + n_, static_cast<size_t>(add), 1.0);
  }
  for (int& b : basic_) {
    if (b >= n_) b += add;
  }
  n_ = new_n;
  nt_ = n_ + m_;
  if (opt_.max_iterations <= 0) max_iters_ = 20000 + 40 * (m_ + n_);

  // Seat the new columns nonbasic on a finite bound (refresh_data will
  // re-derive the exact values from the model it is handed next).
  for (int j = new_n - add; j < new_n; ++j) {
    auto sj = static_cast<size_t>(j);
    double s = col_scale_[sj];
    double lo = model.var_lb(j), hi = model.var_ub(j);
    lb_[sj] = std::isfinite(lo) ? lo / s : lo;
    ub_[sj] = std::isfinite(hi) ? hi / s : hi;
    cost_[sj] = sense_sign_ * model.obj(j) * s;
    if (std::isfinite(lb_[sj])) {
      status_[sj] = kNonbasicLower;
      value_[sj] = lb_[sj];
    } else if (std::isfinite(ub_[sj])) {
      status_[sj] = kNonbasicUpper;
      value_[sj] = ub_[sj];
    } else {
      status_[sj] = kNonbasicFree;
      value_[sj] = 0.0;
    }
  }
  return true;
}

bool Simplex::reinvert() {
  etas_.clear();
  factorized_ = false;
  std::vector<int> vars = basic_;
  // Logical columns first (their etas are singletons), then structurals by
  // ascending column count to curb fill-in.
  std::sort(vars.begin(), vars.end(), [&](int a, int b) {
    bool la = a >= n_, lbv = b >= n_;
    if (la != lbv) return la;
    size_t na = col_nnz(a);
    size_t nb = col_nnz(b);
    if (na != nb) return na < nb;
    return a < b;
  });

  std::vector<char> pivoted(static_cast<size_t>(m_), 0);
  std::vector<int> new_basic(static_cast<size_t>(m_), -1);
  std::vector<double> w(static_cast<size_t>(m_), 0.0);
  std::vector<int> pat;
  std::vector<char> mark(static_cast<size_t>(m_), 0);
  std::vector<int> dropped;
  const bool sparse = opt_.sparse_ftran;

  auto pivot_column = [&](int var) -> bool {
    int best = -1;
    double best_abs = opt_.pivot_tol;
    Eta e;
    if (sparse) {
      // Clear only what the previous column touched, then FTRAN over the
      // tracked pattern. Sorting the pattern reproduces the dense loop's
      // ascending-row scans (pivot choice and eta layout are identical).
      for (int i : pat) {
        w[static_cast<size_t>(i)] = 0.0;
        mark[static_cast<size_t>(i)] = 0;
      }
      pat.clear();
      scatter_column_pattern(var, w, pat, mark);
      ftran_sparse(w, pat, mark);
      std::sort(pat.begin(), pat.end());
      for (int i : pat) {
        if (pivoted[static_cast<size_t>(i)]) continue;
        double a = std::fabs(w[static_cast<size_t>(i)]);
        if (a > best_abs) {
          best_abs = a;
          best = i;
        }
      }
      if (best < 0) return false;
      e.r = best;
      e.pivot = w[static_cast<size_t>(best)];
      for (int i : pat) {
        double v = w[static_cast<size_t>(i)];
        if (i != best && std::fabs(v) > kDropTol) {
          e.idx.push_back(i);
          e.val.push_back(v);
        }
      }
    } else {
      std::fill(w.begin(), w.end(), 0.0);
      scatter_column(var, w);
      ftran(w);
      for (int i = 0; i < m_; ++i) {
        if (pivoted[static_cast<size_t>(i)]) continue;
        double a = std::fabs(w[static_cast<size_t>(i)]);
        if (a > best_abs) {
          best_abs = a;
          best = i;
        }
      }
      if (best < 0) return false;
      e.r = best;
      e.pivot = w[static_cast<size_t>(best)];
      for (int i = 0; i < m_; ++i) {
        double v = w[static_cast<size_t>(i)];
        if (i != best && std::fabs(v) > kDropTol) {
          e.idx.push_back(i);
          e.val.push_back(v);
        }
      }
    }
    etas_.push_back(std::move(e));
    pivoted[static_cast<size_t>(best)] = 1;
    new_basic[static_cast<size_t>(best)] = var;
    return true;
  };

  for (int var : vars) {
    if (!pivot_column(var)) dropped.push_back(var);
  }
  // Basis repair: replace numerically dependent columns with the logical of
  // a still-unpivoted row.
  for (int var : dropped) {
    int row = -1;
    for (int i = 0; i < m_; ++i) {
      if (!pivoted[static_cast<size_t>(i)]) {
        row = i;
        break;
      }
    }
    if (row < 0) return false;
    auto sv = static_cast<size_t>(var);
    // Demote the dependent variable to the nearest finite bound.
    basic_pos_[sv] = -1;
    if (std::isfinite(lb_[sv]) &&
        (!std::isfinite(ub_[sv]) ||
         std::fabs(value_[sv] - lb_[sv]) <= std::fabs(value_[sv] - ub_[sv]))) {
      status_[sv] = kNonbasicLower;
      value_[sv] = lb_[sv];
    } else if (std::isfinite(ub_[sv])) {
      status_[sv] = kNonbasicUpper;
      value_[sv] = ub_[sv];
    } else {
      status_[sv] = kNonbasicFree;
      value_[sv] = 0.0;
    }
    int logical = n_ + row;
    if (basic_pos_[static_cast<size_t>(logical)] >= 0) return false;
    if (!pivot_column(logical)) return false;
    status_[static_cast<size_t>(logical)] = kBasic;
  }

  basic_ = new_basic;
  for (int i = 0; i < m_; ++i) {
    basic_pos_[static_cast<size_t>(basic_[static_cast<size_t>(i)])] = i;
  }
  etas_base_ = etas_.size();
  base_nnz_ = 0;
  for (const Eta& e : etas_) base_nnz_ += e.idx.size() + 1;
  update_nnz_ = 0;
  factorized_ = true;
  return true;
}

void Simplex::compute_basic_values() {
  std::vector<double> rhs(static_cast<size_t>(m_), 0.0);
  for (int j = 0; j < nt_; ++j) {
    auto sj = static_cast<size_t>(j);
    if (status_[sj] == kBasic) continue;
    double v = value_[sj];
    if (v == 0.0) continue;
    if (j >= n_) {
      rhs[static_cast<size_t>(j - n_)] += v;  // logical column is -e_i
      continue;
    }
    for (std::int64_t k = mat_.col_begin(j); k < mat_.col_end(j); ++k) {
      rhs[static_cast<size_t>(mat_.row(k))] -= mat_.value(k) * v;
    }
  }
  ftran(rhs);
  for (int i = 0; i < m_; ++i) {
    value_[static_cast<size_t>(basic_[static_cast<size_t>(i)])] =
        rhs[static_cast<size_t>(i)];
  }
}

double Simplex::total_infeasibility() const {
  double sum = 0.0;
  for (int i = 0; i < m_; ++i) {
    auto j = static_cast<size_t>(basic_[static_cast<size_t>(i)]);
    double v = value_[j];
    if (v < lb_[j]) sum += lb_[j] - v;
    if (v > ub_[j]) sum += v - ub_[j];
  }
  return sum;
}

Simplex::Pricing Simplex::price(const std::vector<double>& y,
                                bool phase1) const {
  // Eligibility (|d| beyond opt_tol) is rule-independent; only the score
  // changes: Dantzig ranks by |d|, devex by d^2 over the reference weight.
  // Bland's fallback overrides both (lowest eligible index, termination
  // guarantee).
  const bool devex = opt_.pricing == PricingRule::Devex && !bland_ &&
                     devex_w_.size() == static_cast<size_t>(nt_);
  Pricing best;
  for (int j = 0; j < nt_; ++j) {
    auto sj = static_cast<size_t>(j);
    signed char st = status_[sj];
    if (st == kBasic) continue;
    if (is_fixed(j)) continue;
    double cj = phase1 ? 0.0 : cost_[sj];
    double d = cj - dot_column(j, y);
    double score = 0.0;
    int dir = 0;
    if (st == kNonbasicLower) {
      if (d < -opt_.opt_tol) {
        score = -d;
        dir = +1;
      }
    } else if (st == kNonbasicUpper) {
      if (d > opt_.opt_tol) {
        score = d;
        dir = -1;
      }
    } else {  // free
      if (d < -opt_.opt_tol) {
        score = -d;
        dir = +1;
      } else if (d > opt_.opt_tol) {
        score = d;
        dir = -1;
      }
    }
    if (dir == 0) continue;
    if (bland_) return Pricing{j, dir, score};  // lowest index wins
    if (devex) score = score * score / devex_w_[sj];
    if (score > best.score) best = Pricing{j, dir, score};
  }
  return best;
}

void Simplex::update_devex(int enter, int leave_pos,
                           const std::vector<double>& w) {
  const double aq = w[static_cast<size_t>(leave_pos)];
  if (aq == 0.0) return;
  auto se = static_cast<size_t>(enter);
  const double gq = std::max(devex_w_[se], 1.0);
  // alpha_rj for every nonbasic j via one BTRAN of e_r (pre-pivot basis).
  std::vector<double> rho(static_cast<size_t>(m_), 0.0);
  rho[static_cast<size_t>(leave_pos)] = 1.0;
  btran(rho);
  double wmax = 1.0;
  for (int j = 0; j < nt_; ++j) {
    auto sj = static_cast<size_t>(j);
    if (status_[sj] == kBasic || j == enter) continue;
    double arj = dot_column(j, rho);
    if (arj == 0.0) continue;
    double ratio = arj / aq;
    double cand = ratio * ratio * gq;
    if (cand > devex_w_[sj]) devex_w_[sj] = cand;
    wmax = std::max(wmax, devex_w_[sj]);
  }
  // The leaving variable's weight in the post-pivot frame.
  auto lj = static_cast<size_t>(basic_[static_cast<size_t>(leave_pos)]);
  devex_w_[lj] = std::max(gq / (aq * aq), 1.0);
  // Reference-framework reset: once the weights have drifted far from the
  // frame they were measured in, they stop approximating steepest edge.
  if (wmax > 1e10 || devex_w_[lj] > 1e10) reset_devex();
}

Simplex::Ratio Simplex::ratio_test(int enter, int direction,
                                   const std::vector<double>& w, bool phase1,
                                   const std::vector<int>* pat) const {
  Ratio r;
  auto se = static_cast<size_t>(enter);
  double best = kInf;
  if (std::isfinite(lb_[se]) && std::isfinite(ub_[se])) {
    best = ub_[se] - lb_[se];  // bound flip distance
    r.bound_flip = true;
  }
  double best_pivot = 0.0;
  const double sigma = static_cast<double>(direction);
  // Visit rows in ascending order either way (positions the dense scan
  // would skip as zero are exactly the ones absent from the pattern), so
  // the non-Bland near-tie rule and Bland's index rule break ties
  // identically on both paths.
  const std::size_t count = pat ? pat->size() : static_cast<size_t>(m_);
  for (std::size_t pi = 0; pi < count; ++pi) {
    const int p = pat ? (*pat)[pi] : static_cast<int>(pi);
    double wp = w[static_cast<size_t>(p)];
    if (std::fabs(wp) <= opt_.pivot_tol) continue;
    auto j = static_cast<size_t>(basic_[static_cast<size_t>(p)]);
    double v = value_[j];
    double rate = -sigma * wp;  // dv/dt of this basic variable
    double limit = kInf;
    signed char land = kNonbasicLower;
    const bool above = v > ub_[j] + opt_.feas_tol;
    const bool below = v < lb_[j] - opt_.feas_tol;
    if (phase1 && above) {
      if (rate < 0.0) {
        limit = (v - ub_[j]) / -rate;
        land = kNonbasicUpper;
      }
    } else if (phase1 && below) {
      if (rate > 0.0) {
        limit = (lb_[j] - v) / rate;
        land = kNonbasicLower;
      }
    } else {
      if (rate > 0.0 && std::isfinite(ub_[j])) {
        limit = (ub_[j] - v) / rate;
        land = kNonbasicUpper;
      } else if (rate < 0.0 && std::isfinite(lb_[j])) {
        limit = (v - lb_[j]) / -rate;
        land = kNonbasicLower;
      }
    }
    if (limit == kInf) continue;
    limit = std::max(limit, 0.0);
    bool take;
    if (bland_) {
      // Bland: strictly smaller step, or equal step with smaller var index.
      take = limit < best - 1e-12 ||
             (!r.bound_flip && r.leave_pos >= 0 && limit <= best + 1e-12 &&
              basic_[static_cast<size_t>(p)] <
                  basic_[static_cast<size_t>(r.leave_pos)]);
      if (r.bound_flip && limit <= best) take = true;
    } else {
      // Prefer clearly smaller steps; on near-ties keep the largest pivot.
      take = limit < best - 1e-9 ||
             (limit <= best + 1e-9 && std::fabs(wp) > best_pivot);
    }
    if (take) {
      best = limit;
      best_pivot = std::fabs(wp);
      r.leave_pos = p;
      r.leave_status = land;
      r.bound_flip = false;
    }
  }
  if (best == kInf) {
    r.unbounded = true;
    return r;
  }
  r.step = best;
  return r;
}

void Simplex::apply_step(int enter, int direction, const Ratio& r,
                         std::vector<double>& w,
                         const std::vector<int>* pat) {
  auto se = static_cast<size_t>(enter);
  const double sigma = static_cast<double>(direction);
  const double t = r.step;
  if (t != 0.0) {
    const std::size_t count = pat ? pat->size() : static_cast<size_t>(m_);
    for (std::size_t pi = 0; pi < count; ++pi) {
      const int p = pat ? (*pat)[pi] : static_cast<int>(pi);
      double wp = w[static_cast<size_t>(p)];
      if (wp == 0.0) continue;
      auto j = static_cast<size_t>(basic_[static_cast<size_t>(p)]);
      value_[j] -= sigma * t * wp;
    }
  }
  if (r.bound_flip) {
    value_[se] += sigma * t;
    status_[se] = (direction > 0) ? kNonbasicUpper : kNonbasicLower;
    value_[se] = (direction > 0) ? ub_[se] : lb_[se];
    return;
  }
  // Pivot: `enter` becomes basic at position r.leave_pos.
  int p = r.leave_pos;
  auto lj = static_cast<size_t>(basic_[static_cast<size_t>(p)]);
  status_[lj] = r.leave_status;
  value_[lj] = (r.leave_status == kNonbasicUpper) ? ub_[lj] : lb_[lj];
  basic_pos_[lj] = -1;

  value_[se] += sigma * t;
  status_[se] = kBasic;
  basic_[static_cast<size_t>(p)] = enter;
  basic_pos_[se] = p;

  Eta e;
  e.r = p;
  e.pivot = w[static_cast<size_t>(p)];
  const std::size_t count = pat ? pat->size() : static_cast<size_t>(m_);
  for (std::size_t pi = 0; pi < count; ++pi) {
    const int i = pat ? (*pat)[pi] : static_cast<int>(pi);
    double v = w[static_cast<size_t>(i)];
    if (i != p && std::fabs(v) > kDropTol) {
      e.idx.push_back(i);
      e.val.push_back(v);
    }
  }
  update_nnz_ += e.idx.size() + 1;
  etas_.push_back(std::move(e));
}

Simplex::LoopResult Simplex::iterate(bool phase1) {
  std::vector<double> y(static_cast<size_t>(m_));
  std::vector<double> w(static_cast<size_t>(m_), 0.0);
  const bool sparse = opt_.sparse_ftran;
  std::vector<int> pat;
  std::vector<char> mark(static_cast<size_t>(m_), 0);
  const int poll_every = opt_.checkpoint_every > 0 ? opt_.checkpoint_every : 32;
  int until_poll = opt_.checkpoint ? poll_every : -1;
  while (true) {
    if (iterations_ >= max_iters_) return LoopResult::IterLimit;
    if (until_poll >= 0 && --until_poll < 0) {
      until_poll = poll_every;
      switch (opt_.checkpoint()) {
        case CheckpointAction::Continue: break;
        case CheckpointAction::Abort: return LoopResult::Aborted;
      }
    }
    if (phase1 && total_infeasibility() <= opt_.feas_tol) {
      return LoopResult::Converged;
    }
    // Dual vector for pricing: y = B^-T c_B (phase-1 costs are the
    // violation signs of the basic variables).
    std::fill(y.begin(), y.end(), 0.0);
    for (int p = 0; p < m_; ++p) {
      auto j = static_cast<size_t>(basic_[static_cast<size_t>(p)]);
      double c;
      if (phase1) {
        double v = value_[j];
        c = (v > ub_[j] + opt_.feas_tol)   ? 1.0
            : (v < lb_[j] - opt_.feas_tol) ? -1.0
                                           : 0.0;
      } else {
        c = cost_[j];
      }
      y[static_cast<size_t>(p)] = c;
    }
    btran(y);

    Pricing pr = price(y, phase1);
    if (pr.direction == 0) {
      if (phase1 && total_infeasibility() > opt_.feas_tol) {
        return LoopResult::Converged;  // converged-but-infeasible; caller checks
      }
      return LoopResult::Converged;
    }

    const std::vector<int>* wpat = nullptr;
    if (sparse) {
      for (int i : pat) {
        w[static_cast<size_t>(i)] = 0.0;
        mark[static_cast<size_t>(i)] = 0;
      }
      pat.clear();
      scatter_column_pattern(pr.var, w, pat, mark);
      ftran_sparse(w, pat, mark);
      std::sort(pat.begin(), pat.end());
      wpat = &pat;
    } else {
      std::fill(w.begin(), w.end(), 0.0);
      scatter_column(pr.var, w);
      ftran(w);
    }

    Ratio r = ratio_test(pr.var, pr.direction, w, phase1, wpat);
    if (r.unbounded) {
      return phase1 ? LoopResult::Numerical : LoopResult::Unbounded;
    }
    if (opt_.pricing == PricingRule::Devex && !r.bound_flip &&
        devex_w_.size() == static_cast<size_t>(nt_)) {
      update_devex(pr.var, r.leave_pos, w);
    }
    apply_step(pr.var, pr.direction, r, w, wpat);
    ++iterations_;

    if (r.step <= 1e-10) {
      if (++degenerate_run_ > 500) bland_ = true;
    } else {
      degenerate_run_ = 0;
      bland_ = false;
    }

    // Reinvert when the update etas start to dominate the FTRAN/BTRAN cost
    // (their fill is what actually grows — pivot columns become dense as
    // the eta file lengthens) or at the hard count cap.
    bool too_dense = update_nnz_ > std::max(base_nnz_,
                                            8 * static_cast<size_t>(m_));
    if (too_dense || etas_.size() - etas_base_ >=
                         static_cast<size_t>(opt_.refactor_every)) {
      if (!reinvert()) return LoopResult::Numerical;
      compute_basic_values();
    }
  }
}

Solution Simplex::run(const Model& model) {
  Solution sol;
  sol.x.assign(static_cast<size_t>(n_), 0.0);
  sol.row_value.assign(static_cast<size_t>(m_), 0.0);
  sol.dual.assign(static_cast<size_t>(m_), 0.0);

  iterations_ = 0;
  degenerate_run_ = 0;
  bland_ = false;
  // Each run opens a fresh devex reference framework.
  if (opt_.pricing == PricingRule::Devex) reset_devex();

  if (!factorized_) {
    if (!reinvert()) {
      sol.status = SolveStatus::Numerical;
      return sol;
    }
    compute_basic_values();
  }

  auto fail = [&](SolveStatus st) {
    sol.status = st;
    sol.iterations = iterations_;
    return sol;
  };

  // Phase 1 (only if the start point is out of bounds — a cold logical
  // start, or a warm basis whose bounds moved). One retry after a
  // reinversion absorbs mild numerical drift; a persistent residual means
  // the model is genuinely infeasible.
  for (int attempt = 0; attempt < 2 && total_infeasibility() > opt_.feas_tol;
       ++attempt) {
    LoopResult lr = iterate(/*phase1=*/true);
    if (lr == LoopResult::IterLimit) return fail(SolveStatus::IterationLimit);
    if (lr == LoopResult::Aborted) return fail(SolveStatus::Aborted);
    if (lr != LoopResult::Converged) return fail(SolveStatus::Numerical);
    if (!reinvert()) return fail(SolveStatus::Numerical);
    compute_basic_values();
    if (attempt == 1 && total_infeasibility() > opt_.feas_tol) {
      return fail(SolveStatus::Infeasible);
    }
  }
  if (total_infeasibility() > opt_.feas_tol) {
    return fail(SolveStatus::Infeasible);
  }

  // Phase 2, with feasibility restoration on numerical drift.
  sol.status = SolveStatus::Numerical;
  for (int attempt = 0; attempt < 4; ++attempt) {
    LoopResult lr = iterate(/*phase1=*/false);
    if (lr == LoopResult::IterLimit) return fail(SolveStatus::IterationLimit);
    if (lr == LoopResult::Unbounded) return fail(SolveStatus::Unbounded);
    if (lr == LoopResult::Numerical) return fail(SolveStatus::Numerical);
    if (lr == LoopResult::Aborted) return fail(SolveStatus::Aborted);
    if (!reinvert()) return fail(SolveStatus::Numerical);
    compute_basic_values();
    if (total_infeasibility() <= 10 * opt_.feas_tol) {
      sol.status = SolveStatus::Optimal;
      break;
    }
    // Drifted: restore feasibility and re-optimise.
    LoopResult p1 = iterate(/*phase1=*/true);
    if (p1 == LoopResult::Aborted) return fail(SolveStatus::Aborted);
    if (p1 != LoopResult::Converged) return fail(SolveStatus::Numerical);
  }

  // Extract and unscale.
  sol.iterations = iterations_;
  for (int j = 0; j < n_; ++j) {
    auto sj = static_cast<size_t>(j);
    double v = value_[sj] * col_scale_[sj];
    double lo = model.var_lb(j), hi = model.var_ub(j);
    sol.x[sj] = std::min(std::max(v, lo), hi);
  }
  for (const auto& entry : model.entries()) {
    sol.row_value[static_cast<size_t>(entry.row)] +=
        entry.value * sol.x[static_cast<size_t>(entry.var)];
  }
  // Duals from the final basis (for the minimisation form), unscaled.
  {
    std::vector<double> y(static_cast<size_t>(m_), 0.0);
    for (int p = 0; p < m_; ++p) {
      auto j = static_cast<size_t>(basic_[static_cast<size_t>(p)]);
      y[static_cast<size_t>(p)] = cost_[j];
    }
    btran(y);
    for (int i = 0; i < m_; ++i) {
      auto si = static_cast<size_t>(i);
      sol.dual[si] = sense_sign_ * y[si] * row_scale_[si];
    }
  }
  double obj = 0.0;
  for (int j = 0; j < n_; ++j) {
    obj += model.obj(j) * sol.x[static_cast<size_t>(j)];
  }
  sol.objective = obj;
  return sol;
}

}  // namespace detail

Solution solve(const Model& model, const SolverOptions& options) {
  detail::Simplex simplex(model, options);
  return simplex.run(model);
}

}  // namespace pmcast::lp
