#include "core/exact.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <queue>
#include <set>
#include <utility>

#include "core/tree_heuristics.hpp"
#include "lp/resolve.hpp"
#include "lp/simplex.hpp"

namespace pmcast::core {
namespace {

/// Enumerate every arborescence rooted at the source that spans *exactly*
/// the node set \p members (mask) with every leaf a target. Trees are
/// produced via parent assignment — each non-source member picks one
/// incoming edge from inside the member set — followed by an acyclicity /
/// connectivity check, so each tree is generated exactly once.
class SubsetEnumerator {
 public:
  SubsetEnumerator(const Digraph& g, NodeId source,
                   const std::vector<char>& targets,
                   const std::vector<char>& members, std::size_t max_trees,
                   const std::function<bool()>& should_abort,
                   std::vector<MulticastTree>& out)
      : g_(g),
        source_(source),
        targets_(targets),
        members_(members),
        max_trees_(max_trees),
        should_abort_(should_abort),
        out_(out) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v != source && members[static_cast<size_t>(v)]) {
        order_.push_back(v);
      }
    }
    choice_.assign(order_.size(), kInvalidEdge);
  }

  /// Returns false when the tree limit was hit or the abort hook fired
  /// (the two causes are distinguished by aborted()).
  bool run() { return recurse(0); }
  bool aborted() const { return aborted_; }

 private:
  bool recurse(size_t idx) {
    // Poll inside the recursion, not just per subset: rejected parent
    // assignments don't emit trees (and don't count against max_trees),
    // so a dense relay-free instance can spend its whole exponential
    // budget inside ONE subset. Counting recursion steps bounds the
    // response time to the deadline regardless of the reject rate.
    if (should_abort_ && (++steps_ & 1023u) == 0 && should_abort_()) {
      aborted_ = true;
      return false;
    }
    if (idx == order_.size()) return emit();
    NodeId v = order_[idx];
    for (EdgeId e : g_.in_edges(v)) {
      NodeId u = g_.edge(e).from;
      if (!members_[static_cast<size_t>(u)]) continue;
      choice_[idx] = e;
      if (!recurse(idx + 1)) return false;
    }
    choice_[idx] = kInvalidEdge;
    return true;
  }

  bool emit() {
    // Connectivity: walk children from the source using the chosen parents.
    std::vector<int> parent_of(static_cast<size_t>(g_.node_count()), -1);
    for (size_t i = 0; i < order_.size(); ++i) {
      parent_of[static_cast<size_t>(order_[i])] =
          g_.edge(choice_[i]).from;
    }
    // Count children to detect non-target leaves early.
    std::vector<int> children(static_cast<size_t>(g_.node_count()), 0);
    for (size_t i = 0; i < order_.size(); ++i) {
      ++children[static_cast<size_t>(g_.edge(choice_[i]).from)];
    }
    for (NodeId v : order_) {
      if (children[static_cast<size_t>(v)] == 0 &&
          !targets_[static_cast<size_t>(v)]) {
        return true;  // a relay leaf: tree rejected, continue enumeration
      }
    }
    // Reachability from the source through parent pointers.
    for (NodeId v : order_) {
      NodeId cur = v;
      int steps = 0;
      while (cur != source_) {
        int p = parent_of[static_cast<size_t>(cur)];
        if (p < 0 || ++steps > g_.node_count()) return true;  // cycle
        cur = static_cast<NodeId>(p);
      }
    }
    MulticastTree tree;
    tree.source = source_;
    tree.edges.assign(choice_.begin(), choice_.end());
    out_.push_back(std::move(tree));
    return out_.size() <= max_trees_;
  }

  const Digraph& g_;
  NodeId source_;
  const std::vector<char>& targets_;
  const std::vector<char>& members_;
  std::size_t max_trees_;
  const std::function<bool()>& should_abort_;
  std::vector<MulticastTree>& out_;
  std::vector<NodeId> order_;
  std::vector<EdgeId> choice_;
  std::uint32_t steps_ = 0;
  bool aborted_ = false;
};

}  // namespace

namespace {

/// Every member must be reachable from the source through edges inside the
/// member set, or no parent assignment can span it — the whole subset
/// enumerates to zero trees. One BFS decides that before the exponential
/// recursion starts.
bool subset_spannable(const Digraph& g, NodeId source,
                      const std::vector<char>& members) {
  std::vector<char> seen(static_cast<size_t>(g.node_count()), 0);
  std::vector<NodeId> stack{source};
  seen[static_cast<size_t>(source)] = 1;
  int reached = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (EdgeId e : g.out_edges(u)) {
      NodeId v = g.edge(e).to;
      if (!members[static_cast<size_t>(v)] || seen[static_cast<size_t>(v)]) {
        continue;
      }
      seen[static_cast<size_t>(v)] = 1;
      ++reached;
      stack.push_back(v);
    }
  }
  int member_count = 0;
  for (char m : members) member_count += m != 0;
  return reached == member_count;
}

}  // namespace

std::optional<std::vector<MulticastTree>> enumerate_multicast_trees(
    const MulticastProblem& problem, const EnumerationLimits& limits,
    std::size_t* subsets_pruned, bool* aborted) {
  const Digraph& g = problem.graph;
  if (problem.target_count() == 0) return std::vector<MulticastTree>{};
  std::vector<char> target_mask = problem.target_mask();

  // Relay nodes (neither source nor target) may or may not participate.
  std::vector<NodeId> relays;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v != problem.source && !target_mask[static_cast<size_t>(v)]) {
      relays.push_back(v);
    }
  }
  if (relays.size() > 24) return std::nullopt;  // subset blow-up guard

  std::vector<MulticastTree> trees;
  const auto subsets = 1ULL << relays.size();
  for (std::uint64_t mask = 0; mask < subsets; ++mask) {
    if (limits.should_abort && (mask & 63u) == 0 && limits.should_abort()) {
      if (aborted != nullptr) *aborted = true;
      return std::nullopt;
    }
    std::vector<char> members = target_mask;
    members[static_cast<size_t>(problem.source)] = 1;
    for (size_t i = 0; i < relays.size(); ++i) {
      if (mask & (1ULL << i)) {
        members[static_cast<size_t>(relays[i])] = 1;
      }
    }
    if (!subset_spannable(g, problem.source, members)) {
      if (subsets_pruned != nullptr) ++*subsets_pruned;
      continue;
    }
    SubsetEnumerator enumerator(g, problem.source, target_mask, members,
                                limits.max_trees, limits.should_abort,
                                trees);
    if (!enumerator.run()) {
      if (aborted != nullptr) *aborted = enumerator.aborted();
      return std::nullopt;
    }
  }
  return trees;
}

ExactSolution exact_optimal_throughput(const MulticastProblem& problem,
                                       const EnumerationLimits& limits) {
  ExactSolution out;
  auto trees = enumerate_multicast_trees(problem, limits, &out.subsets_pruned,
                                         &out.aborted);
  if (!trees) return out;
  if (trees->empty()) return out;
  out.trees_enumerated = trees->size();

  const Digraph& g = problem.graph;
  // Port rows first — one send row and one receive row per node — then
  // one column per tree via the sparse column builder. Row ids and entry
  // emission order are identical to the historical interleaved build, so
  // the pivot sequence (and the golden traces pinned to it) is unchanged.
  lp::Model model(lp::Sense::Maximize);
  std::vector<int> send_row(static_cast<size_t>(g.node_count()));
  std::vector<int> recv_row(static_cast<size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    send_row[static_cast<size_t>(v)] = model.add_row_le(1.0);
    recv_row[static_cast<size_t>(v)] = model.add_row_le(1.0);
  }
  std::vector<int> col_rows;
  std::vector<double> col_vals;
  for (size_t k = 0; k < trees->size(); ++k) {
    col_rows.clear();
    col_vals.clear();
    for (EdgeId e : (*trees)[k].edges) {
      const Edge& edge = g.edge(e);
      col_rows.push_back(send_row[static_cast<size_t>(edge.from)]);
      col_vals.push_back(edge.cost);
      col_rows.push_back(recv_row[static_cast<size_t>(edge.to)]);
      col_vals.push_back(edge.cost);
    }
    model.add_column(0.0, lp::kInf, 1.0, col_rows, col_vals);
  }
  lp::Solution sol = lp::solve(model, limits.solver);
  out.lp_iterations = sol.iterations;
  if (sol.status == lp::SolveStatus::Aborted) {
    out.aborted = true;
    return out;
  }
  if (!sol.optimal()) return out;
  out.ok = true;
  out.throughput = sol.objective;
  for (size_t k = 0; k < trees->size(); ++k) {
    if (sol.x[k] > 1e-9) {
      out.combination.trees.push_back((*trees)[k]);
      out.combination.rates.push_back(sol.x[k]);
    }
  }
  return out;
}

namespace {

/// Pricing oracle: a min-weight shortest-path arborescence from the source
/// under the (non-negative) reduced-cost edge weights, pruned to the paths
/// that serve targets. This is the classic pruned-Dijkstra directed-Steiner
/// heuristic, re-run every round on fresh dual weights. Deterministic: the
/// heap orders by (distance, node id) and ties keep the first-found parent,
/// so identical duals always price the identical tree.
std::optional<MulticastTree> price_tree(const Digraph& g, NodeId source,
                                        const std::vector<char>& target_mask,
                                        const std::vector<double>& weight) {
  const auto n = static_cast<size_t>(g.node_count());
  std::vector<double> dist(n, kInfinity);
  std::vector<EdgeId> parent(n, kInvalidEdge);
  std::vector<char> done(n, 0);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[static_cast<size_t>(source)] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (done[static_cast<size_t>(u)]) continue;
    done[static_cast<size_t>(u)] = 1;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).to;
      const double nd = d + weight[static_cast<size_t>(e)];
      if (nd < dist[static_cast<size_t>(v)]) {
        dist[static_cast<size_t>(v)] = nd;
        parent[static_cast<size_t>(v)] = e;
        heap.push({nd, v});
      }
    }
  }
  // Keep exactly the nodes on some source->target path; every pruned-tree
  // leaf is then a target by construction.
  std::vector<char> keep(n, 0);
  keep[static_cast<size_t>(source)] = 1;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!target_mask[static_cast<size_t>(v)]) continue;
    if (!done[static_cast<size_t>(v)]) return std::nullopt;  // unreachable
    NodeId cur = v;
    while (!keep[static_cast<size_t>(cur)]) {
      keep[static_cast<size_t>(cur)] = 1;
      cur = g.edge(parent[static_cast<size_t>(cur)]).from;
    }
  }
  MulticastTree tree;
  tree.source = source;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v != source && keep[static_cast<size_t>(v)]) {
      tree.edges.push_back(parent[static_cast<size_t>(v)]);
    }
  }
  return tree;
}

}  // namespace

ExactSolution column_generation_throughput(const MulticastProblem& problem,
                                           const ColumnGenLimits& limits) {
  using Clock = std::chrono::steady_clock;
  ExactSolution out;
  out.column_generation = true;
  const Digraph& g = problem.graph;
  if (problem.target_count() == 0) return out;
  const std::vector<char> target_mask = problem.target_mask();

  // Theorem 4: 2|E| trees suffice at the optimum, so the automatic column
  // cap scales with the graph rather than the (exponential) tree space.
  const int max_columns =
      limits.max_columns > 0 ? limits.max_columns
                             : std::max(64, 2 * g.edge_count());
  const int max_rounds =
      limits.max_rounds > 0 ? limits.max_rounds : max_columns;

  // Seed the restricted master with the portfolio's tree heuristics (the
  // master can only certify combinations of columns it has, so good seeds
  // bound how much pricing has to discover). Dedup by sorted edge set.
  std::vector<MulticastTree> trees;
  std::set<std::vector<EdgeId>> seen;
  auto admit = [&](std::optional<MulticastTree> t) -> bool {
    if (!t || t->edges.empty()) return false;
    std::vector<EdgeId> key = t->edges;
    std::sort(key.begin(), key.end());
    if (!seen.insert(std::move(key)).second) return false;
    trees.push_back(std::move(*t));
    return true;
  };
  admit(mcph(problem));
  admit(pruned_dijkstra(problem));
  admit(kmb(problem));
  if (trees.empty()) return out;  // some target is unreachable

  // Restricted master (rows first so tree columns can append): the same
  // per-node send/recv LP as exact_optimal_throughput, over a growing
  // column set.
  lp::Model master(lp::Sense::Maximize);
  std::vector<int> send_row(static_cast<size_t>(g.node_count()));
  std::vector<int> recv_row(static_cast<size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    send_row[static_cast<size_t>(v)] = master.add_row_le(1.0);
    recv_row[static_cast<size_t>(v)] = master.add_row_le(1.0);
  }
  lp::ResolvableModel rm(std::move(master));
  std::vector<std::pair<int, double>> acc;
  std::vector<int> col_rows;
  std::vector<double> col_vals;
  auto append_tree_column = [&](const MulticastTree& t) {
    // Merge per-row coefficients locally (a node's send row is hit once
    // per child) so each column lands clean in the solver's CSC store.
    acc.clear();
    for (EdgeId e : t.edges) {
      const Edge& edge = g.edge(e);
      acc.emplace_back(send_row[static_cast<size_t>(edge.from)], edge.cost);
      acc.emplace_back(recv_row[static_cast<size_t>(edge.to)], edge.cost);
    }
    std::sort(acc.begin(), acc.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    col_rows.clear();
    col_vals.clear();
    for (size_t k = 0; k < acc.size();) {
      size_t k2 = k;
      double sum = 0.0;
      while (k2 < acc.size() && acc[k2].first == acc[k].first) {
        sum += acc[k2].second;
        ++k2;
      }
      col_rows.push_back(acc[k].first);
      col_vals.push_back(sum);
      k = k2;
    }
    rm.add_column(0.0, lp::kInf, 1.0, col_rows, col_vals);
  };
  for (const MulticastTree& t : trees) append_tree_column(t);

  lp::SolverOptions sopts = limits.solver;
  sopts.pricing = limits.master_pricing;
  lp::IncrementalSimplex master_solver(sopts);

  double pricing_ms = 0.0;
  int columns_priced = 0;
  auto record_stats = [&]() {
    out.lp = master_solver.stats();
    out.lp.master_iterations = out.lp.solves;
    out.lp.columns_priced = columns_priced;
    out.lp.pricing_ms = pricing_ms;
    out.lp_iterations = static_cast<int>(out.lp.iterations);
    out.trees_enumerated = trees.size();
  };

  std::vector<double> weight(static_cast<size_t>(g.edge_count()), 0.0);
  lp::Solution sol;
  lp::Solution best;  // last optimal master solution (the anytime result)
  int rounds = 0;
  // Emit a combination from a master solution. Budget stops route through
  // this too: every optimal master solution is already a feasible,
  // certifiable weighted combination of the columns it was solved over, so
  // a deadline mid-pricing degrades the value (fewer columns priced), never
  // the certificate. x may be shorter than `trees` when a column was
  // appended after the solve being emitted.
  auto emit = [&](const lp::Solution& s) {
    record_stats();
    out.ok = true;
    out.throughput = s.objective;
    for (size_t k = 0; k < s.x.size(); ++k) {
      if (s.x[k] > 1e-9) {
        out.combination.trees.push_back(trees[k]);
        out.combination.rates.push_back(s.x[k]);
      }
    }
  };
  while (true) {
    if (limits.should_abort && limits.should_abort()) {
      out.aborted = true;
      if (best.optimal()) emit(best); else record_stats();
      return out;
    }
    sol = master_solver.solve(rm);
    if (sol.status == lp::SolveStatus::Aborted) {
      out.aborted = true;
      if (best.optimal()) emit(best); else record_stats();
      return out;
    }
    if (!sol.optimal()) {
      record_stats();
      return out;  // numerical failure in the master: ok stays false
    }
    best = sol;
    if (++rounds > max_rounds) break;
    if (static_cast<int>(trees.size()) >= max_columns) break;

    // Reduced-cost weights: a tree column prices out at
    //   1 - sum_e c_e (u_send(from_e) + u_recv(to_e)),
    // so an improving tree is one whose weight under
    //   w_e = c_e (u_send + u_recv)
    // is below 1. The duals of the active <=-rows of this maximisation are
    // non-negative up to solver tolerance; clamp the noise at zero so the
    // oracle's shortest-path weights stay non-negative.
    const auto t0 = Clock::now();
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& edge = g.edge(e);
      const double u =
          sol.dual[static_cast<size_t>(
              send_row[static_cast<size_t>(edge.from)])] +
          sol.dual[static_cast<size_t>(recv_row[static_cast<size_t>(
              edge.to)])];
      weight[static_cast<size_t>(e)] = std::max(0.0, edge.cost * u);
    }
    std::optional<MulticastTree> priced =
        price_tree(g, problem.source, target_mask, weight);
    pricing_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!priced) break;
    double rc_weight = 0.0;
    for (EdgeId e : priced->edges) {
      rc_weight += weight[static_cast<size_t>(e)];
    }
    if (rc_weight >= 1.0 - limits.rc_tol) break;  // nothing improving left
    if (!admit(std::move(priced))) break;  // oracle repeated a known tree
    append_tree_column(trees.back());
    ++columns_priced;
  }

  emit(sol);
  return out;
}

BestTreeSolution exact_best_single_tree(const MulticastProblem& problem,
                                        const EnumerationLimits& limits) {
  BestTreeSolution out;
  auto trees = enumerate_multicast_trees(problem, limits);
  if (!trees || trees->empty()) return out;
  out.trees_enumerated = trees->size();
  double best_period = kInfinity;
  for (const MulticastTree& tree : *trees) {
    double period = tree_period(problem.graph, tree);
    if (period < best_period) {
      best_period = period;
      out.tree = tree;
    }
  }
  out.ok = best_period < kInfinity;
  out.throughput = out.ok ? 1.0 / best_period : 0.0;
  return out;
}

}  // namespace pmcast::core
