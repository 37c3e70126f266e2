#include "decomp/det_k_decomp.h"

#include <map>
#include <optional>
#include <utility>

#include "decomp/separator_enum.h"

namespace htqo {

namespace {

using SubproblemKey = std::pair<Bitset, Bitset>;  // (component, connector)

struct Solution {
  Bitset sep;
  Bitset chi;
  std::vector<SubproblemKey> children;
};

class DetSearch {
 public:
  DetSearch(const Hypergraph& h, std::size_t k, ResourceGovernor* governor)
      : h_(h), k_(k), governor_(governor) {}

  bool Decompose(const Bitset& comp, const Bitset& conn) {
    if (governor_ != nullptr && governor_->exhausted()) return false;
    SubproblemKey key{comp, conn};
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second.has_value();

    std::optional<Solution> found;
    decomp_internal::ForEachSeparator(
        h_, comp, conn, k_,
        [&](const Bitset& sep) {
          Bitset chi = h_.VarsOf(sep) & (conn | h_.VarsOf(comp));
          std::vector<Bitset> components = h_.ComponentsOf(comp, chi);
          Solution sol;
          sol.sep = sep;
          sol.chi = chi;
          for (const Bitset& child : components) {
            if (child == comp) return false;  // no progress, next separator
            Bitset child_conn = h_.VarsOf(child) & chi;
            if (!Decompose(child, child_conn)) return false;
            sol.children.emplace_back(child, child_conn);
          }
          found = std::move(sol);
          return true;  // stop enumeration
        },
        governor_);
    // A budget trip aborts the enumeration mid-way; do not memoize the
    // subproblem as infeasible — the caller surfaces the trip status and the
    // search object is discarded.
    if (governor_ != nullptr && governor_->exhausted()) return false;
    if (governor_ != nullptr) {
      // Ignore the trip here (checked by the caller); keep accounting exact.
      (void)governor_->ReserveMemory(
          decomp_internal::ApproxSubproblemBytes(h_));
    }
    memo_.emplace(std::move(key), std::move(found));
    return memo_.at({comp, conn}).has_value();
  }

  // Rebuilds the hypertree from the memoized solutions.
  void Build(const Bitset& comp, const Bitset& conn, std::size_t parent,
             Hypertree* out) const {
    const std::optional<Solution>& sol = memo_.at({comp, conn});
    HTQO_CHECK(sol.has_value());
    std::size_t node = out->AddNode(sol->chi, sol->sep, parent);
    for (const SubproblemKey& child : sol->children) {
      Build(child.first, child.second, node, out);
    }
  }

 private:
  const Hypergraph& h_;
  std::size_t k_;
  ResourceGovernor* governor_;
  std::map<SubproblemKey, std::optional<Solution>> memo_;
};

}  // namespace

Result<Hypertree> DetKDecomp(const Hypergraph& h, std::size_t k,
                             const Bitset* root_conn,
                             ResourceGovernor* governor) {
  HTQO_CHECK(k >= 1);
  Bitset all = h.AllEdges();
  Bitset conn = root_conn != nullptr ? *root_conn : h.EmptyVertexSet();
  if (h.NumEdges() == 0) {
    Hypertree empty;
    empty.AddNode(h.EmptyVertexSet(), h.EmptyEdgeSet());
    return empty;
  }
  DetSearch search(h, k, governor);
  bool found = search.Decompose(all, conn);
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

Result<std::size_t> ComputeHypertreeWidth(const Hypergraph& h,
                                          std::size_t max_k,
                                          ResourceGovernor* governor) {
  if (h.NumEdges() == 0) return std::size_t{0};
  for (std::size_t k = 1; k <= max_k; ++k) {
    auto hd = DetKDecomp(h, k, nullptr, governor);
    if (hd.ok()) return k;
    if (hd.status().code() == StatusCode::kDeadlineExceeded) {
      return hd.status();
    }
  }
  return Status::NotFound("hypertree width exceeds " + std::to_string(max_k));
}

}  // namespace htqo
