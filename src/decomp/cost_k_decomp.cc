#include "decomp/cost_k_decomp.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "decomp/separator_enum.h"
#include "util/thread_pool.h"

namespace htqo {

double StructuralCostModel::VertexRows(const Bitset& lambda,
                                       const Bitset& chi) const {
  (void)chi;
  return std::pow(default_rows_, static_cast<double>(lambda.Count()));
}

double StructuralCostModel::VertexCost(const Bitset& lambda,
                                       const Bitset& chi) const {
  return VertexRows(lambda, chi);
}

double StatsDecompositionCostModel::DistinctOf(std::size_t v,
                                               const Bitset& lambda) const {
  double best = 0;
  for (std::size_t e = lambda.FirstSet(); e < lambda.size();
       e = lambda.NextSet(e)) {
    if (!h_.edge(e).Test(v)) continue;
    auto it = edges_[e].distinct.find(v);
    double d = it != edges_[e].distinct.end() ? it->second : edges_[e].rows;
    best = std::max(best, d);
  }
  return best > 0 ? best : 1000.0;
}

double StatsDecompositionCostModel::JoinRows(const Bitset& lambda) const {
  double rows = 1.0;
  for (std::size_t e = lambda.FirstSet(); e < lambda.size();
       e = lambda.NextSet(e)) {
    rows *= std::max(1.0, edges_[e].rows);
  }
  Bitset vars = h_.VarsOf(lambda);
  for (std::size_t v = vars.FirstSet(); v < vars.size(); v = vars.NextSet(v)) {
    std::size_t occurrences = 0;
    for (std::size_t e = lambda.FirstSet(); e < lambda.size();
         e = lambda.NextSet(e)) {
      if (h_.edge(e).Test(v)) ++occurrences;
    }
    if (occurrences >= 2) {
      double d = DistinctOf(v, lambda);
      rows /= std::pow(std::max(1.0, d),
                       static_cast<double>(occurrences - 1));
    }
  }
  return std::max(1.0, rows);
}

double StatsDecompositionCostModel::VertexRows(const Bitset& lambda,
                                               const Bitset& chi) const {
  double join_rows = JoinRows(lambda);
  // Projection onto chi: cannot exceed the product of distinct counts.
  double cap = 1.0;
  for (std::size_t v = chi.FirstSet(); v < chi.size(); v = chi.NextSet(v)) {
    cap *= DistinctOf(v, lambda);
    if (cap >= join_rows) return join_rows;  // early out, cap not binding
  }
  return std::max(1.0, std::min(join_rows, cap));
}

double StatsDecompositionCostModel::VertexCost(const Bitset& lambda,
                                               const Bitset& chi) const {
  (void)chi;
  // Work of materializing the lambda join: simulate the evaluator's
  // connected-first greedy fold and charge every intermediate join size —
  // a separator of mutually disconnected edges is thereby charged its cross
  // products.
  std::vector<std::size_t> edges = lambda.ToVector();
  if (edges.empty()) return 0.0;
  std::sort(edges.begin(), edges.end(), [&](std::size_t a, std::size_t b) {
    return edges_[a].rows < edges_[b].rows;
  });
  Bitset subset(lambda.size());
  subset.Set(edges[0]);
  Bitset covered = h_.edge(edges[0]);
  double cost = std::max(1.0, edges_[edges[0]].rows);
  std::vector<bool> used(edges.size(), false);
  used[0] = true;
  for (std::size_t step = 1; step < edges.size(); ++step) {
    std::size_t best = edges.size();
    bool best_connected = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (used[i]) continue;
      bool conn = h_.edge(edges[i]).Intersects(covered);
      if (best == edges.size() || (conn && !best_connected)) {
        best = i;
        best_connected = conn;
      }
    }
    used[best] = true;
    subset.Set(edges[best]);
    covered |= h_.edge(edges[best]);
    cost += JoinRows(subset) + std::max(1.0, edges_[edges[best]].rows);
  }
  return cost;
}

namespace {

using SubproblemKey = std::pair<Bitset, Bitset>;

struct Solution {
  Bitset sep;
  Bitset chi;
  double rows = 0;   // estimated rows of this vertex relation
  double cost = 0;   // total cost of the subtree rooted here
  std::vector<SubproblemKey> children;
};

class CostSearch {
 public:
  CostSearch(const Hypergraph& h, std::size_t k,
             const DecompositionCostModel& model, ResourceGovernor* governor,
             ThreadPool* pool, std::size_t num_threads)
      : h_(h),
        k_(k),
        model_(model),
        governor_(governor),
        pool_(pool),
        parallel_(pool != nullptr && num_threads > 1) {}

  // Minimum subtree cost for the subproblem, or nullopt when infeasible.
  // In parallel mode the memo doubles as a claim table: the first thread to
  // reach a key computes it, later threads block until it is published, so
  // every subproblem is evaluated exactly once — the governor's node total
  // is therefore identical to the serial search at any thread count.
  const std::optional<Solution>& Decompose(const Bitset& comp,
                                           const Bitset& conn) {
    SubproblemKey key{comp, conn};
    if (!parallel_) {
      auto it = memo_.find(key);
      if (it != memo_.end()) return it->second.sol;
      // Recursive calls only see strictly smaller components, so no cycle
      // can reach this key before it is memoized below.
      std::optional<Solution> best = Compute(comp, conn);
      if (governor_ != nullptr && governor_->exhausted()) {
        // Aborted mid-enumeration: memoizing would record an answer derived
        // from a truncated search space. The caller returns the trip status
        // and this search object is never reused.
        static const std::optional<Solution> kAborted;
        return kAborted;
      }
      ChargeMemo();
      auto [pos, inserted] = memo_.try_emplace(std::move(key));
      HTQO_CHECK(inserted);
      pos->second.sol = std::move(best);
      pos->second.done = true;
      return pos->second.sol;
    }

    MemoEntry* entry = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto [it, inserted] = memo_.try_emplace(key);
      if (!inserted) {
        // std::map references are stable across inserts, so waiting on and
        // returning this entry is safe without re-lookup.
        cv_.wait(lock, [&] { return it->second.done; });
        return it->second.sol;
      }
      entry = &it->second;
    }
    std::optional<Solution> best = Compute(comp, conn);
    const bool aborted = governor_ != nullptr && governor_->exhausted();
    if (aborted) {
      // Still publish (as infeasible) so waiters wake; the whole search is
      // discarded after a trip, so the bogus entry is never consumed.
      best.reset();
    } else {
      ChargeMemo();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry->sol = std::move(best);
      entry->done = true;
    }
    cv_.notify_all();
    if (aborted) {
      static const std::optional<Solution> kAborted;
      return kAborted;
    }
    return entry->sol;
  }

  // Root fan-out: enumerate the root's separator candidates first (in the
  // exact order — and with the exact governor charges — of the serial
  // enumeration), evaluate them on the pool, then min-reduce serially in
  // candidate order with a strict `<`, which reproduces the serial
  // first-strict-minimum tie-break bit for bit.
  bool DecomposeRootParallel(const Bitset& comp, const Bitset& conn,
                             std::size_t lanes) {
    std::vector<Bitset> candidates;
    decomp_internal::ForEachSeparator(
        h_, comp, conn, k_,
        [&](const Bitset& sep) {
          candidates.push_back(sep);
          return false;
        },
        governor_);
    if (governor_ != nullptr && governor_->exhausted()) return false;
    std::vector<std::optional<Solution>> sols(candidates.size());
    pool_->ParallelFor(0, candidates.size(), /*grain=*/1, lanes, governor_,
                       [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           sols[i] =
                               EvaluateCandidate(comp, conn, candidates[i]);
                         }
                       });
    if (governor_ != nullptr && governor_->exhausted()) return false;
    std::optional<Solution> best;
    for (std::optional<Solution>& sol : sols) {
      if (sol.has_value() && (!best.has_value() || sol->cost < best->cost)) {
        best = std::move(*sol);
      }
    }
    ChargeMemo();
    const bool found = best.has_value();
    MemoEntry& entry = memo_[SubproblemKey{comp, conn}];
    entry.sol = std::move(best);
    entry.done = true;
    return found;
  }

  void Build(const Bitset& comp, const Bitset& conn, std::size_t parent,
             Hypertree* out) const {
    const std::optional<Solution>& sol = memo_.at({comp, conn}).sol;
    HTQO_CHECK(sol.has_value());
    std::size_t node = out->AddNode(sol->chi, sol->sep, parent);
    for (const SubproblemKey& child : sol->children) {
      Build(child.first, child.second, node, out);
    }
  }

 private:
  struct MemoEntry {
    bool done = false;
    std::optional<Solution> sol;
  };

  // Cost of one candidate separator for (comp, conn): vertex cost plus the
  // recursively decomposed children. nullopt when infeasible (or aborted —
  // the callers re-check the governor).
  std::optional<Solution> EvaluateCandidate(const Bitset& comp,
                                            const Bitset& conn,
                                            const Bitset& sep) {
    Bitset chi = h_.VarsOf(sep) & (conn | h_.VarsOf(comp));
    std::vector<Bitset> components = h_.ComponentsOf(comp, chi);
    Solution sol;
    sol.sep = sep;
    sol.chi = chi;
    sol.rows = model_.VertexRows(sep, chi);
    sol.cost = model_.VertexCost(sep, chi);
    for (const Bitset& child : components) {
      if (child == comp) return std::nullopt;  // no progress
      Bitset child_conn = h_.VarsOf(child) & chi;
      const std::optional<Solution>& sub = Decompose(child, child_conn);
      if (!sub.has_value()) return std::nullopt;
      sol.cost += sub->cost + model_.JoinCost(sol.rows, sub->rows);
      sol.children.emplace_back(child, child_conn);
    }
    return sol;
  }

  std::optional<Solution> Compute(const Bitset& comp, const Bitset& conn) {
    std::optional<Solution> best;
    if (governor_ == nullptr || !governor_->exhausted()) {
      decomp_internal::ForEachSeparator(
          h_, comp, conn, k_,
          [&](const Bitset& sep) {
            std::optional<Solution> sol = EvaluateCandidate(comp, conn, sep);
            if (sol.has_value() &&
                (!best.has_value() || sol->cost < best->cost)) {
              best = std::move(*sol);
            }
            return false;  // keep enumerating: we want the minimum
          },
          governor_);
    }
    return best;
  }

  void ChargeMemo() {
    if (governor_ != nullptr) {
      (void)governor_->ReserveMemory(
          decomp_internal::ApproxSubproblemBytes(h_));
    }
  }

  const Hypergraph& h_;
  std::size_t k_;
  const DecompositionCostModel& model_;
  ResourceGovernor* governor_;
  ThreadPool* pool_;
  const bool parallel_;
  std::mutex mu_;                // guards memo_ when parallel_
  std::condition_variable cv_;   // signals entry->done transitions
  std::map<SubproblemKey, MemoEntry> memo_;
};

}  // namespace

Result<Hypertree> CostKDecomp(const Hypergraph& h, std::size_t k,
                              const DecompositionCostModel& model,
                              const Bitset* root_conn,
                              ResourceGovernor* governor, ThreadPool* pool,
                              std::size_t num_threads) {
  HTQO_CHECK(k >= 1);
  if (h.NumEdges() == 0) {
    Hypertree empty;
    empty.AddNode(h.EmptyVertexSet(), h.EmptyEdgeSet());
    return empty;
  }
  Bitset all = h.AllEdges();
  Bitset conn = root_conn != nullptr ? *root_conn : h.EmptyVertexSet();
  CostSearch search(h, k, model, governor, pool, num_threads);
  const bool parallel = pool != nullptr && num_threads > 1;
  bool found = parallel ? search.DecomposeRootParallel(all, conn, num_threads)
                        : search.Decompose(all, conn).has_value();
  if (governor != nullptr && governor->exhausted()) {
    return governor->trip_status();
  }
  if (!found) {
    return Status::NotFound("no hypertree decomposition of width <= " +
                            std::to_string(k));
  }
  Hypertree out;
  search.Build(all, conn, HypertreeNode::kNoParent, &out);
  return out;
}

}  // namespace htqo
