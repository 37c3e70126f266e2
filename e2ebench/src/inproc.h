// Helpers for the workloads that call the library in-process: one timed,
// optionally traced query, and answer comparisons against the references.

#ifndef HTQO_E2EBENCH_INPROC_H_
#define HTQO_E2EBENCH_INPROC_H_

#include <string>
#include <utility>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "bench.h"
#include "util/rng.h"

namespace e2e {

// Runs `sql` as one operation of `stats`: counts it, times it, folds its
// spans into the ledger when traced, adds its meters, and checks the q-HD
// width property (decomposition_width <= max_width).
htqo::Result<htqo::QueryRun> TimedQuery(const htqo::HybridOptimizer& optimizer,
                                        const std::string& sql,
                                        const htqo::RunOptions& options,
                                        bool traced, PassStats* stats);

// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* v, htqo::Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

// Single int64 column holding exactly `expected` (any order, no duplicates).
bool SameInts(const htqo::Relation& out, const std::vector<int64_t>& expected);

// (key, sum) rows in the reference's order, sums within CloseTo.
bool SameGroups(const htqo::Relation& out,
                const std::vector<std::pair<std::string, double>>& expected);
bool SameGroups(const htqo::Relation& out,
                const std::vector<std::pair<int64_t, double>>& expected);

}  // namespace e2e

#endif  // HTQO_E2EBENCH_INPROC_H_
