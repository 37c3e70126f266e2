// htqo_e2e: one workload of the end-to-end benchmark per invocation.
//
//   htqo_e2e --workload <tpch|cyclic|plan_churn|served_mix> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then runs whole rounds for --seconds with tracing off and prints the
// end-to-end metrics. --trace 1 runs an untraced pass and a traced pass of
// the same rounds and prints the per-layer metrics. Both print a run report
// line, then one JSON object as the last line of standard output, and exit
// non-zero when any answer was wrong.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "cache/decomp_cache.h"
#include "layers.h"
#include "obs/metrics.h"

namespace e2e {
namespace {

constexpr int kSetups = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

double Per(double total, double count) { return count > 0 ? total / count : 0; }

void PrintResult(bool correct, const PassStats& stats,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(stats.attempted);
  out += ", \"failed\": " + std::to_string(stats.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quoted(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quoted(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintReport(const RunConfig& config, const PassStats& stats,
                 double setup_s) {
  std::printf(
      "report {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host\": {\"cpus\": %ld, \"build_type\": %s, "
      "\"compiler\": %s}, \"rounds\": %llu, \"queries\": %llu, "
      "\"writes\": %llu, \"attempted\": %llu, \"failed\": %llu, "
      "\"wrong\": %llu, \"latency_samples\": %zu, \"setup_s\": %s}\n",
      Quoted(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), Num(config.seconds).c_str(),
      config.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      Quoted(E2E_BUILD_TYPE).c_str(), Quoted(E2E_COMPILER).c_str(),
      static_cast<unsigned long long>(stats.rounds),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.writes),
      static_cast<unsigned long long>(stats.attempted),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.wrong), stats.latencies_s.size(),
      Num(setup_s).c_str());
}

double HistogramSum(const htqo::MetricsSnapshot& s, const char* name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : static_cast<double>(it->second.sum);
}

std::vector<Metric> EndToEnd(const PassStats& run, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"qps",
       run.rates.empty() ? Per(static_cast<double>(run.queries), run.busy_s)
                         : Quantile(run.rates, 0.5),
       "queries/s"},
      {"latency_p50_ms", Quantile(run.latencies_s, 0.5) * 1e3, "ms"},
      {"latency_p90_ms", Quantile(run.latencies_s, 0.9) * 1e3, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

std::vector<Metric> PerLayer(const PassStats& plain, const PassStats& traced,
                             const htqo::MetricsSnapshot& registry,
                             const htqo::DecompCache::Stats& cache,
                             double load_s, double analyze_s) {
  const double q = static_cast<double>(traced.queries);
  const double rounds = static_cast<double>(traced.rounds);
  const LayerLedger& ledger = traced.ledger;
  std::vector<Metric> m = {
      {"storage.load_s", load_s, "s"},
      {"stats.analyze_s", analyze_s, "s"},
      {"stats.write_ms",
       Per(traced.write_stats_s * 1e3, static_cast<double>(traced.writes)),
       "ms"},
  };
  for (const std::string& layer : SpanLayerNames()) {
    auto it = ledger.ms.find(layer);
    m.push_back({layer, Per(it == ledger.ms.end() ? 0 : it->second, q), "ms"});
  }
  m.push_back({"cache.hit_ratio",
               Per(static_cast<double>(cache.hits),
                   static_cast<double>(cache.hits + cache.misses)),
               "ratio"});
  m.push_back({"cache.stale", Per(static_cast<double>(cache.stale), rounds),
               "count/round"});
  m.push_back({"decomp.search_nodes",
               Per(HistogramSum(registry, htqo::kMetricSearchNodesPerQuery), q),
               "count/query"});
  m.push_back({"exec.work", Per(traced.exec_work, q), "count/query"});
  m.push_back({"exec.rows", Per(traced.exec_rows, q), "count/query"});
  m.push_back({"exec.hash_probes",
               Per(HistogramSum(registry, htqo::kMetricHashProbesPerQuery), q),
               "count/query"});
  m.push_back({"exec.bloom_skips",
               Per(HistogramSum(registry, htqo::kMetricBloomSkipsPerQuery), q),
               "count/query"});
  m.push_back({"exec.batches",
               Per(HistogramSum(registry, htqo::kMetricExecBatchesPerQuery), q),
               "count/query"});
  m.push_back({"pool.lane_ms", Per(ledger.lane_ms, q), "ms"});
  m.push_back({"pool.parallelism", Per(ledger.lane_ms, ledger.execute_ms),
               "ratio"});
  m.push_back({"server.queue_wait_ms", Per(traced.queue_wait_ms, q), "ms"});
  m.push_back({"server.overhead_ms", Per(traced.server_overhead_ms, q), "ms"});
  m.push_back({"server.degraded",
               Per(static_cast<double>(traced.degraded), rounds),
               "count/round"});
  m.push_back({"server.sheds_retried",
               Per(static_cast<double>(traced.sheds_retried), rounds),
               "count/round"});
  const double plain_per_query =
      Per(plain.busy_s, static_cast<double>(plain.queries));
  const double traced_per_query = Per(traced.busy_s, q);
  m.push_back({"obs.trace_overhead_pct",
               plain_per_query > 0
                   ? (traced_per_query / plain_per_query - 1) * 100
                   : 0,
               "%"});
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: htqo_e2e --workload <tpch|cyclic|plan_churn|served_mix>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string work_dir = ".";
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || args.count("--workload") == 0) return Usage();
  for (const auto& [key, value] : args) {
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!(config.seconds > 0)) return Usage();
  std::unique_ptr<Workload> workload;
  if (config.workload == "tpch") {
    workload = MakeTpchWorkload(config.seed);
  } else if (config.workload == "cyclic") {
    workload = MakeCyclicWorkload(config.seed);
  } else if (config.workload == "plan_churn") {
    workload = MakePlanChurnWorkload(config.seed);
  } else if (config.workload == "served_mix") {
    workload = MakeServedMixWorkload(config.seed, work_dir);
  } else {
    return Usage();
  }

  std::vector<double> total, load, analyze;
  uint64_t warmup_wrong = 0;
  for (int i = 0; i < kSetups; ++i) {
    const SetupTimes t = workload->Setup();
    total.push_back(t.total_s);
    load.push_back(t.load_s);
    analyze.push_back(t.analyze_s);
    warmup_wrong += t.warmup_wrong;
  }
  const double setup_s = Quantile(total, 0.5);

  PassStats report;
  std::vector<Metric> metrics;
  if (!config.trace) {
    workload->Run(config.seconds, false, &report);
    metrics = EndToEnd(report, setup_s);
  } else {
    PassStats plain, traced;
    workload->Run(config.seconds * 0.4, false, &plain);
    const htqo::MetricsSnapshot before =
        htqo::MetricsRegistry::Global().Snapshot();
    const htqo::DecompCache::Stats cache_before =
        htqo::DecompCache::Global().stats();
    workload->Run(config.seconds * 0.6, true, &traced);
    const htqo::MetricsSnapshot registry =
        htqo::MetricsRegistry::Global().Snapshot().DeltaSince(before);
    htqo::DecompCache::Stats cache = htqo::DecompCache::Global().stats();
    cache.hits -= cache_before.hits;
    cache.misses -= cache_before.misses;
    cache.stale -= cache_before.stale;
    metrics = PerLayer(plain, traced, registry, cache, Quantile(load, 0.5),
                       Quantile(analyze, 0.5));
    report = plain;
    report.Merge(traced);
  }
  report.wrong += warmup_wrong;
  const bool correct = report.wrong == 0;
  PrintReport(config, report, setup_s);
  PrintResult(correct, report, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
