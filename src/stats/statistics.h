// Data statistics: the "Statistics Picker" of the paper's architecture
// (Fig. 5). Collected by scanning relations, or absent — the optimizers
// support both regimes, which is exactly the CommDB with/without-statistics
// axis of Section 6.

#ifndef HTQO_STATS_STATISTICS_H_
#define HTQO_STATS_STATISTICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/relation.h"

namespace htqo {

struct ColumnStats {
  std::size_t distinct_count = 0;
  std::optional<Value> min;
  std::optional<Value> max;
  // Equi-depth histogram boundaries for orderable columns (like
  // pg_stats.histogram_bounds): bounds[0] = min, bounds.back() = max, and
  // each of the bounds.size()-1 buckets holds ~the same number of rows.
  // Empty when the column was not histogrammed (too few rows, or strings).
  std::vector<Value> histogram_bounds;
};

struct RelationStats {
  std::size_t row_count = 0;
  // Parallel to the relation's schema columns.
  std::vector<ColumnStats> columns;
};

// Exact statistics computed by a full scan. `histogram_buckets` controls
// the equi-depth histograms built for numeric/date columns (0 disables).
RelationStats CollectStats(const Relation& relation,
                           std::size_t histogram_buckets = 32);

// Manually declared statistics — the paper's stand-alone usage: "the user
// may optionally indicate the cardinality of the involved relations, and
// the selectivity of their attributes" (Section 5). `distinct_counts` is
// parallel to the relation's columns; zero entries mean unknown (the
// estimator falls back to defaults for them).
RelationStats MakeManualStats(std::size_t row_count,
                              const std::vector<std::size_t>& distinct_counts);

// Process-wide per-relation statistics epochs, keyed by lowercased relation
// name. Every StatisticsRegistry::Put/Clear bumps the touched relations'
// epochs; the decomposition cache snapshots them at compute time and treats
// any later bump as invalidation. The registry is deliberately global (not
// per-StatisticsRegistry): several registries naming the same relation are
// indistinguishable to a process-wide plan cache, so invalidation must be
// conservative across all of them. A never-touched relation reads epoch 0.
class StatsEpochRegistry {
 public:
  static StatsEpochRegistry& Global();

  uint64_t Get(const std::string& relation_name) const;
  void Bump(const std::string& relation_name);
  // For a relation rebuilt per query from `inputs` (a derived table): sets
  // its epoch to the sum of theirs. Epochs only grow, so unchanged inputs
  // keep plans cached on it fresh and any input's stats change stales them.
  void SetDerived(const std::string& relation_name,
                  const std::vector<std::string>& inputs);

  StatsEpochRegistry() = default;
  StatsEpochRegistry(const StatsEpochRegistry&) = delete;
  StatsEpochRegistry& operator=(const StatsEpochRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> epochs_;
};

// Statistics registry for a database; mirrors pg_statistic. Lookup failures
// mean "no statistics gathered yet" and estimators fall back to defaults.
class StatisticsRegistry {
 public:
  StatisticsRegistry() = default;
  // A scratch registry layered over `base` (nullptr, or outliving it):
  // Find falls through to it for relations not Put here.
  explicit StatisticsRegistry(const StatisticsRegistry* base) : base_(base) {}

  void Put(const std::string& relation_name, RelationStats stats);
  // As Put, for a derived table materialized from the base relations
  // `inputs`; the epoch follows StatsEpochRegistry::SetDerived.
  void PutDerived(const std::string& relation_name, RelationStats stats,
                  const std::vector<std::string>& inputs);

  const RelationStats* Find(const std::string& relation_name) const;

  // Scans every relation in `catalog` (the ANALYZE command).
  void AnalyzeAll(const Catalog& catalog);

  void Clear();
  bool empty() const {
    return stats_.empty() && (base_ == nullptr || base_->empty());
  }

 private:
  std::map<std::string, RelationStats> stats_;
  const StatisticsRegistry* base_ = nullptr;
};

}  // namespace htqo

#endif  // HTQO_STATS_STATISTICS_H_
