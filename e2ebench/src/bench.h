// Shared pieces of the end-to-end benchmark: run configuration, per-run
// tallies, the per-layer ledger filled from traces and outside timers, and
// small timing helpers.

#ifndef HTQO_E2EBENCH_BENCH_H_
#define HTQO_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Value at quantile q (0..1) of `v` by linear interpolation; 0 when empty.
double Quantile(std::vector<double> v, double q);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Time attributed to each layer by folding span trees (see layers.h).
struct LayerLedger {
  std::map<std::string, double> ms;  // layer metric name -> total ms
  double lane_ms = 0;                // sum of pool-lane `chunk` spans
  double execute_ms = 0;             // sum of `execute` span durations
};

// What one pass (a sequence of whole rounds) did.
struct PassStats {
  std::vector<double> latencies_s;  // one per completed query
  uint64_t queries = 0;             // completed queries
  uint64_t writes = 0;              // completed writes (plan_churn)
  uint64_t attempted = 0;           // operations started (queries + writes)
  uint64_t failed = 0;              // operations the program failed
  uint64_t wrong = 0;               // answers that disagreed with a check
  uint64_t rounds = 0;
  // Time inside operations, answer checks left out; for the served
  // workload, the wall time of the pass.
  double busy_s = 0;
  // Query rate of each slice of the pass: each round in-process, each
  // whole second of wall time for the served workload. qps is their
  // median, so a burst of outside load in one slice does not move it.
  std::vector<double> rates;

  // Outside timers and counters (summed over the pass).
  double write_stats_s = 0;  // CollectStats + StatisticsRegistry::Put
  double exec_work = 0;      // ExecContext::work_charged
  double exec_rows = 0;      // ExecContext::rows_charged
  double queue_wait_ms = 0;  // QueryReply::queued_us
  double server_overhead_ms = 0;  // client latency minus server plan+exec
  uint64_t degraded = 0;     // replies with a ladder step or admission level
  uint64_t sheds_retried = 0;
  LayerLedger ledger;

  void Merge(const PassStats& o);
};

// Runs `round` until `seconds` of wall time have passed (at least once),
// recording each round's query rate over its busy time.
void RunRounds(double seconds, PassStats* stats,
               const std::function<void()>& round);

// One failed check, reported on stderr and counted in PassStats::wrong.
void ReportWrong(PassStats* stats, const std::string& what);

struct SetupTimes {
  double total_s = 0;    // the whole set-up, warm-up pass included
  double load_s = 0;     // data generation + Catalog::Put
  double analyze_s = 0;  // StatisticsRegistry::AnalyzeAll
  uint64_t warmup_wrong = 0;  // warm-up answers that failed or were wrong
};

// A workload: set up from a seed, then run whole rounds of fixed operations.
class Workload {
 public:
  virtual ~Workload() = default;
  // Builds everything a run needs from scratch (data, statistics, server,
  // one warm-up pass over the distinct queries), replacing earlier state.
  virtual SetupTimes Setup() = 0;
  // Runs whole rounds until `seconds` of wall time have passed (at least
  // one), traced or not, checking every answer.
  virtual void Run(double seconds, bool traced, PassStats* stats) = 0;
};

std::unique_ptr<Workload> MakeTpchWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeCyclicWorkload(uint64_t seed);
std::unique_ptr<Workload> MakePlanChurnWorkload(uint64_t seed);
// `work_dir` receives the traced server's per-query trace files.
std::unique_ptr<Workload> MakeServedMixWorkload(uint64_t seed,
                                                const std::string& work_dir);

}  // namespace e2e

#endif  // HTQO_E2EBENCH_BENCH_H_
