#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "bench.h"
#include "inproc.h"
#include "layers.h"
#include "reference.h"

namespace e2e {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PassStats::Merge(const PassStats& o) {
  latencies_s.insert(latencies_s.end(), o.latencies_s.begin(),
                     o.latencies_s.end());
  queries += o.queries;
  writes += o.writes;
  attempted += o.attempted;
  failed += o.failed;
  wrong += o.wrong;
  rounds += o.rounds;
  rates.insert(rates.end(), o.rates.begin(), o.rates.end());
  busy_s += o.busy_s;
  write_stats_s += o.write_stats_s;
  exec_work += o.exec_work;
  exec_rows += o.exec_rows;
  queue_wait_ms += o.queue_wait_ms;
  server_overhead_ms += o.server_overhead_ms;
  degraded += o.degraded;
  sheds_retried += o.sheds_retried;
  for (const auto& [k, v] : o.ledger.ms) ledger.ms[k] += v;
  ledger.lane_ms += o.ledger.lane_ms;
  ledger.execute_ms += o.ledger.execute_ms;
}

void RunRounds(double seconds, PassStats* stats,
               const std::function<void()>& round) {
  const auto start = Clock::now();
  do {
    const uint64_t queries = stats->queries;
    const double busy = stats->busy_s;
    round();
    ++stats->rounds;
    if (stats->busy_s > busy) {
      stats->rates.push_back(static_cast<double>(stats->queries - queries) /
                             (stats->busy_s - busy));
    }
  } while (SecondsSince(start) < seconds);
}

void ReportWrong(PassStats* stats, const std::string& what) {
  if (stats->wrong++ < 10) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

htqo::Result<htqo::QueryRun> TimedQuery(const htqo::HybridOptimizer& optimizer,
                                        const std::string& sql,
                                        const htqo::RunOptions& options,
                                        bool traced, PassStats* stats) {
  htqo::RunOptions opts = options;
  std::optional<htqo::Tracer> tracer;
  if (traced) opts.trace.tracer = &tracer.emplace();
  ++stats->attempted;
  const auto start = Clock::now();
  htqo::Result<htqo::QueryRun> run = optimizer.Run(sql, opts);
  const double seconds = SecondsSince(start);
  stats->busy_s += seconds;
  if (!run.ok()) {
    if (stats->failed++ < 10) {
      std::fprintf(stderr, "FAILED: %s\n  %s\n",
                   run.status().ToString().c_str(), sql.c_str());
    }
    return run;
  }
  ++stats->queries;
  stats->latencies_s.push_back(seconds);
  stats->exec_work += static_cast<double>(run->ctx.work_charged.load());
  stats->exec_rows += static_cast<double>(run->ctx.rows_charged.load());
  if (traced) FoldSpans(SpansOf(*tracer), &stats->ledger);
  if (run->decomposition_width > options.max_width) {
    ReportWrong(stats, "decomposition width " +
                           std::to_string(run->decomposition_width) +
                           " > max_width for: " + sql);
  }
  return run;
}

bool SameInts(const htqo::Relation& out, const std::vector<int64_t>& expected) {
  if (out.arity() != 1 || out.NumRows() != expected.size()) return false;
  std::set<int64_t> got;
  for (std::size_t i = 0; i < out.NumRows(); ++i) {
    if (out.At(i, 0).type() != htqo::ValueType::kInt64) return false;
    got.insert(out.At(i, 0).AsInt64());
  }
  return got == std::set<int64_t>(expected.begin(), expected.end());
}

namespace {

template <typename Key, typename KeyOf>
bool SameGroupsImpl(const htqo::Relation& out,
                    const std::vector<std::pair<Key, double>>& expected,
                    KeyOf key_of) {
  if (out.arity() != 2 || out.NumRows() != expected.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(key_of(out.At(i, 0)) == expected[i].first)) return false;
    if (!out.At(i, 1).IsNumeric() ||
        !CloseTo(out.At(i, 1).AsDouble(), expected[i].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameGroups(const htqo::Relation& out,
                const std::vector<std::pair<std::string, double>>& expected) {
  return SameGroupsImpl(out, expected, [](const htqo::Value& v) {
    return v.type() == htqo::ValueType::kString ? v.AsString() : std::string();
  });
}

bool SameGroups(const htqo::Relation& out,
                const std::vector<std::pair<int64_t, double>>& expected) {
  return SameGroupsImpl(out, expected, [](const htqo::Value& v) {
    return v.type() == htqo::ValueType::kInt64 ? v.AsInt64() : int64_t{-1};
  });
}

}  // namespace e2e
