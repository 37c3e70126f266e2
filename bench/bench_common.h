// Shared harness for the figure benchmarks.
//
// Every figure bench runs the relevant optimizer modes through the
// HybridOptimizer under a work/row budget. A run that exceeds the budget is
// reported as DNF (the paper reports these as "does not terminate after
// more than 10 minutes") via the `dnf` counter instead of burning wall
// clock. Counters:
//   work  — abstract work units (scan rows + hash/NL probes + join output)
//   rows  — rows produced by operators (intermediate result volume)
//   out   — final result rows
//   dnf   — 1 when the budget was exceeded
//   width — q-HD decomposition width (q-HD modes only)

#ifndef HTQO_BENCH_BENCH_COMMON_H_
#define HTQO_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/hybrid_optimizer.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace htqo {
namespace bench {

// The paper's ">10 minutes" cutoff, expressed as abstract work. 2e8 units
// is a few seconds of wall clock on current hardware.
constexpr std::size_t kWorkBudget = 200'000'000;
constexpr std::size_t kRowBudget = 50'000'000;

struct RunOutcome {
  bool dnf = false;
  std::size_t work = 0;
  std::size_t rows = 0;
  std::size_t out = 0;
  std::size_t width = 0;
  std::size_t pruned = 0;
  // Governor observations (search nodes charged, high-water memory, trips
  // by kind) and the number of degradation-ladder steps the run took.
  GovernorStats governor;
  std::size_t degradation_steps = 0;
  // Worker lanes the run used and the per-phase wall clock it reported —
  // the thread-sweep benches read scaling off these instead of the
  // iteration time (which includes catalog setup amortization).
  std::size_t threads = 1;
  double plan_wall_ms = 0;
  double exec_wall_ms = 0;
  // Memory-adaptive execution observations (zeros unless the run spilled).
  SpillCounters spill;
  // Why the governor tripped, when it did (kNone on clean runs).
  TripReason trip_reason = TripReason::kNone;
  // Hash-table probe count (ExecContext::hash_probes) and the process-wide
  // metrics delta this run contributed (MetricsRegistry is global; the
  // delta scopes it to the one query).
  std::size_t hash_probes = 0;
  MetricsSnapshot metrics_delta;
};

// With HTQO_TRACE_DIR set, every RunOnce writes a Chrome trace of its query
// to <dir>/run_<n>.json. Off otherwise (null tracer, no-op path).
inline const char* TraceDir() {
  static const char* dir = std::getenv("HTQO_TRACE_DIR");
  return dir;
}

inline RunOutcome RunOnce(const HybridOptimizer& optimizer,
                          const std::string& sql, OptimizerMode mode,
                          uint64_t seed = 1, std::size_t max_width = 4,
                          double deadline_seconds = 0,
                          std::size_t search_node_budget =
                              std::numeric_limits<std::size_t>::max(),
                          std::size_t num_threads = 1,
                          std::size_t memory_budget_bytes =
                              std::numeric_limits<std::size_t>::max(),
                          bool enable_spill = false) {
  RunOptions options;
  options.mode = mode;
  options.seed = seed;
  options.max_width = max_width;
  options.work_budget = kWorkBudget;
  options.row_budget = kRowBudget;
  options.fallback_to_dp = false;
  options.degrade_on_budget = false;  // benches measure one mode at a time
  options.deadline_seconds = deadline_seconds;
  options.search_node_budget = search_node_budget;
  options.num_threads = num_threads;
  options.memory_budget_bytes = memory_budget_bytes;
  options.enable_spill = enable_spill;
  Tracer tracer;
  if (TraceDir() != nullptr) options.trace.tracer = &tracer;
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  auto run = optimizer.Run(sql, options);
  if (TraceDir() != nullptr) {
    static std::atomic<std::size_t> trace_seq{0};
    std::string path = std::string(TraceDir()) + "/run_" +
                       std::to_string(trace_seq.fetch_add(1)) + ".json";
    // Exporter failures degrade to a warning; the bench row still counts.
    Status ts = tracer.WriteChromeTrace(path);
    if (!ts.ok()) {
      std::fprintf(stderr, "warning: trace export failed: %s\n",
                   ts.ToString().c_str());
    }
  }
  RunOutcome outcome;
  outcome.metrics_delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(metrics_before);
  outcome.threads = num_threads;
  if (!run.ok()) {
    // Budget or deadline exceeded = DNF; anything else is a harness bug.
    HTQO_CHECK(run.status().code() == StatusCode::kResourceExhausted ||
               run.status().code() == StatusCode::kDeadlineExceeded);
    outcome.dnf = true;
    outcome.work = kWorkBudget;
    return outcome;
  }
  outcome.work = run->ctx.work_charged;
  outcome.rows = run->ctx.rows_charged;
  outcome.out = run->output.NumRows();
  outcome.width = run->decomposition_width;
  outcome.pruned = run->pruned_lambda_entries;
  outcome.governor = run->governor;
  outcome.degradation_steps = run->degradations.size();
  outcome.plan_wall_ms = run->plan_seconds * 1e3;
  outcome.exec_wall_ms = run->exec_seconds * 1e3;
  outcome.spill = run->spill;
  outcome.trip_reason = run->governor.trip_reason;
  outcome.hash_probes = run->ctx.hash_probes.load();
  return outcome;
}

inline void SetCounters(benchmark::State& state, const RunOutcome& outcome) {
  state.counters["work"] = static_cast<double>(outcome.work);
  state.counters["rows"] = static_cast<double>(outcome.rows);
  state.counters["out"] = static_cast<double>(outcome.out);
  state.counters["dnf"] = outcome.dnf ? 1 : 0;
  if (outcome.width > 0) {
    state.counters["width"] = static_cast<double>(outcome.width);
  }
  // Governor columns land in the emitted JSON alongside work/rows, so a
  // DNF row can be diagnosed (deadline vs. node budget vs. memory) without
  // rerunning the figure.
  if (outcome.governor.search_nodes > 0) {
    state.counters["search_nodes"] =
        static_cast<double>(outcome.governor.search_nodes);
  }
  if (outcome.governor.peak_memory_bytes > 0) {
    state.counters["peak_mem"] =
        static_cast<double>(outcome.governor.peak_memory_bytes);
  }
  if (outcome.governor.deadline_hits > 0) {
    state.counters["deadline_hits"] =
        static_cast<double>(outcome.governor.deadline_hits);
  }
  if (outcome.governor.budget_hits > 0) {
    state.counters["budget_hits"] =
        static_cast<double>(outcome.governor.budget_hits);
  }
  if (outcome.governor.memory_hits > 0) {
    state.counters["memory_hits"] =
        static_cast<double>(outcome.governor.memory_hits);
  }
  // Shed-at-the-door vs. tripped-mid-query: a row with admission_sheds set
  // never started, unlike deadline/budget/memory trips above.
  if (outcome.governor.admission_sheds > 0) {
    state.counters["admission_sheds"] =
        static_cast<double>(outcome.governor.admission_sheds);
  }
  if (outcome.trip_reason != TripReason::kNone) {
    state.counters["trip_reason"] =
        static_cast<double>(static_cast<int>(outcome.trip_reason));
  }
  if (outcome.degradation_steps > 0) {
    state.counters["degradations"] =
        static_cast<double>(outcome.degradation_steps);
  }
  // Spill columns: a figure row that degraded to disk shows how much.
  if (outcome.spill.spill_events > 0) {
    state.counters["spill_events"] =
        static_cast<double>(outcome.spill.spill_events);
    state.counters["spill_bytes_written"] =
        static_cast<double>(outcome.spill.bytes_written);
    state.counters["spill_partitions"] =
        static_cast<double>(outcome.spill.partitions);
    state.counters["max_recursion_depth"] =
        static_cast<double>(outcome.spill.max_recursion_depth);
  }
  state.counters["threads"] = static_cast<double>(outcome.threads);
  state.counters["plan_wall_ms"] = outcome.plan_wall_ms;
  state.counters["exec_wall_ms"] = outcome.exec_wall_ms;
  if (outcome.hash_probes > 0) {
    state.counters["hash_probes"] = static_cast<double>(outcome.hash_probes);
  }
  // Metrics-registry view of the same run (snapshot delta, so each bench
  // case reports only its own contribution to the process-wide registry):
  // latency histogram means land in the per-query JSON next to the raw
  // wall-clock counters, which is how regressions in the metrics pipeline
  // itself become visible in figure output.
  for (const auto& [name, value] : outcome.metrics_delta.counters) {
    if (value > 0) {
      state.counters["m_" + name] = static_cast<double>(value);
    }
  }
  auto exec_hist = outcome.metrics_delta.histograms.find(kMetricExecLatencyUs);
  if (exec_hist != outcome.metrics_delta.histograms.end() &&
      exec_hist->second.count > 0) {
    state.counters["m_exec_latency_us_mean"] = exec_hist->second.Mean();
  }
}

}  // namespace bench
}  // namespace htqo

#endif  // HTQO_BENCH_BENCH_COMMON_H_
