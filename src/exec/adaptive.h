// Mid-query re-planning controller (DESIGN.md §6h): the runtime half of the
// adaptive re-optimization loop.
//
// The q-HD evaluator computes one relation per decomposition node; with a
// ReplanController armed on the ExecContext, it (a) records the actual
// cardinality of every atom scan, (b) compares each finished node's actual
// row count against the cost model's estimate at the wave barrier, and
// (c) when an intermediate blows past its estimate by `blowup_factor`,
// checkpoints every completed node result and abandons the pass so
// HybridOptimizer can re-enter the decomposition search with the observed
// cardinalities pinned. The resumed pass reuses checkpoints whose subtree
// matches and recomputes the rest.
//
// Determinism: trips are decided at wave barriers on the coordinating
// thread, after every node of the wave finished — the completed-node set at
// a trip is exactly the union of the finished waves, identical at any
// thread count. Checkpoints are stored in node-index order, so the
// replan.checkpoint fault site sees the same hit sequence serial or
// parallel.
//
// Thread safety: NoteScanActual is called from pool lanes and locks; every
// other member is only touched by the coordinating thread (between waves or
// between evaluation passes) and is deliberately unlocked.

#ifndef HTQO_EXEC_ADAPTIVE_H_
#define HTQO_EXEC_ADAPTIVE_H_

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "storage/relation.h"

namespace htqo {

class ReplanController {
 public:
  struct Options {
    // A node trips when actual > blowup_factor * max(estimate, 1).
    double blowup_factor = 4.0;
    // ... and actual >= min_rows: tiny intermediates never justify paying
    // for a second decomposition search.
    std::size_t min_rows = 1024;
  };

  // Checkpoint key: (sorted atom indices of the subtree's lambda union,
  // sorted variable ids of the separator keep(p) the node hands upward).
  // Both index the query's fixed atom/variable numbering, so keys are stable
  // across replans of one query, and the key fully determines the node
  // relation: every node projection is set-semantics, so
  // rel(p) = pi_keep(p)(join of the subtree's atoms), and a checkpoint is
  // only ever handed to a node that expects exactly its columns.
  using CheckpointKey =
      std::pair<std::vector<std::size_t>, std::vector<std::size_t>>;

  explicit ReplanController(const Options& options) : options_(options) {}

  // Disarmed, the controller still records scans and serves checkpoints but
  // never trips — the state of the final (post-replan or fallback) pass.
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  // Observed scan cardinality of atom `atom_index` (called by ScanAtom from
  // any pool lane; values are deterministic, re-scans just overwrite).
  void NoteScanActual(std::size_t atom_index, std::size_t rows);
  // Snapshot for pinning into the re-planning search's edge stats.
  std::map<std::size_t, std::size_t> ObservedEdgeRows() const;

  // Installs the per-node cardinality estimates of the tree about to be
  // evaluated and clears any previous trip.
  void BeginTree(std::vector<double> node_estimates);
  double NodeEstimate(std::size_t node) const {
    return node < estimates_.size() ? estimates_[node] : 0.0;
  }

  // Trip policy, consulted at the wave barrier for every finished node.
  bool ShouldTrip(std::size_t node, std::size_t actual_rows) const;

  void RecordTrip(std::size_t node, std::size_t actual_rows);
  bool tripped() const { return tripped_; }
  std::size_t tripped_node() const { return tripped_node_; }
  std::size_t tripped_actual() const { return tripped_actual_; }
  double tripped_estimate() const { return NodeEstimate(tripped_node_); }

  // Checkpoint store. Store consumes the relation; false means the
  // replan.checkpoint fault site fired and the node was dropped (it will be
  // recomputed). Take consumes the entry.
  bool StoreCheckpoint(CheckpointKey key, Relation rel);
  bool HasCheckpoint(const CheckpointKey& key) const {
    return checkpoints_.find(key) != checkpoints_.end();
  }
  std::optional<Relation> TakeCheckpoint(const CheckpointKey& key);

  std::size_t checkpoints_stored() const { return stored_; }
  std::size_t checkpoints_reused() const { return reused_; }
  std::size_t checkpoints_dropped() const { return dropped_; }

  const Options& options() const { return options_; }

 private:
  Options options_;
  bool armed_ = true;
  mutable std::mutex scan_mu_;  // guards observed_ only
  std::map<std::size_t, std::size_t> observed_;
  std::vector<double> estimates_;
  bool tripped_ = false;
  std::size_t tripped_node_ = 0;
  std::size_t tripped_actual_ = 0;
  std::map<CheckpointKey, Relation> checkpoints_;
  std::size_t stored_ = 0;
  std::size_t reused_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace htqo

#endif  // HTQO_EXEC_ADAPTIVE_H_
