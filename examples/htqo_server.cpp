// Stand-alone query server daemon over a generated workload.
//
//   $ ./htqo_server --port 7070 --metrics-port 7071 --load tpch 0.005
//   listening on 127.0.0.1:7070
//   metrics on http://127.0.0.1:7071/metrics
//
// SIGTERM (or SIGINT) triggers a graceful drain: stop accepting, shed the
// admission queues, wait up to --drain-deadline seconds for in-flight
// queries, cancel stragglers through their governors, then exit 0. The
// signal handler only writes one byte to a self-pipe; all real work happens
// on the main thread, so the drain path is async-signal-safe by
// construction.
//
// Scripts (tools/check.sh --server, the CI server job) parse the
// "listening on" line for the bound port, so keep its format stable.

#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"

namespace {

using namespace htqo;

// Self-pipe: the handler's only side effect. Read end is polled (blocking
// read) by main; write end is signal-safe.
int g_signal_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int) {
  const char byte = 1;
  ssize_t ignored = write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host <addr>             bind address (default 127.0.0.1)\n"
      "  --port <p>                query port (default 0 = kernel-assigned)\n"
      "  --metrics-port <p>        enable HTTP /metrics on this port (0 = "
      "kernel-assigned)\n"
      "  --load tpch <sf>          generate TPC-H at the scale factor "
      "(default 0.005)\n"
      "  --load synthetic <card> <sel> <n>   generate r1..rN(a,b)\n"
      "  --max-concurrent <n>      slots across all tenants (default 4)\n"
      "  --tenant-concurrent <n>   per-tenant running-query cap (default 2)\n"
      "  --queue-depth <n>         per-tenant queue bound (default 8)\n"
      "  --node-budget <n>         process-wide search-node budget\n"
      "  --mem-budget <bytes>      process-wide memory budget (enables "
      "spill)\n"
      "  --threads <n>             per-query worker lanes (default 1)\n"
      "  --default-deadline <s>    deadline for QUERY without deadline_ms "
      "(default 30)\n"
      "  --idle-timeout <s>        session idle timeout (default 300)\n"
      "  --drain-deadline <s>      grace period on SIGTERM (default 5)\n"
      "  --trace-dir <dir>         arm per-query tracing; export Chrome "
      "traces here\n"
      "  --trace-sample <frac>     head-sampling fraction in [0,1] "
      "(default 0)\n"
      "  --trace-slow-ms <ms>      tail-capture queries slower than this\n"
      "  --slo-p99 <ms>            default tenant SLO target p99 (default "
      "250)\n"
      "  --slo-budget <frac>       default tenant error budget (default "
      "0.01)\n"
      "  --tenant-slo <t> <ms> <b> per-tenant SLO override\n"
      "  --flight-capacity <n>     flight-recorder ring size (default "
      "1024)\n"
      "  --crash-dump <path>       dump the flight ring here on a fatal "
      "signal\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool metrics = false;
  uint16_t metrics_port = 0;
  std::string load_kind = "tpch";
  double tpch_sf = 0.005;
  SyntheticConfig synthetic;
  ServerOptions options;
  double drain_deadline = 5.0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value (%s)\n", arg.c_str(), what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next("address");
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next("port")));
    } else if (arg == "--metrics-port") {
      metrics = true;
      metrics_port = static_cast<uint16_t>(std::atoi(next("port")));
    } else if (arg == "--load") {
      load_kind = next("tpch|synthetic");
      if (load_kind == "tpch") {
        tpch_sf = std::atof(next("scale factor"));
      } else if (load_kind == "synthetic") {
        synthetic.cardinality =
            static_cast<std::size_t>(std::atoll(next("cardinality")));
        synthetic.selectivity =
            static_cast<std::size_t>(std::atoll(next("selectivity")));
        synthetic.num_relations =
            static_cast<std::size_t>(std::atoll(next("relations")));
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--max-concurrent") {
      options.admission.max_total_concurrent =
          static_cast<std::size_t>(std::atoll(next("slots")));
    } else if (arg == "--tenant-concurrent") {
      options.admission.default_quota.max_concurrent =
          static_cast<std::size_t>(std::atoll(next("slots")));
    } else if (arg == "--queue-depth") {
      options.admission.default_quota.max_queue_depth =
          static_cast<std::size_t>(std::atoll(next("depth")));
    } else if (arg == "--node-budget") {
      options.admission.node_budget =
          static_cast<std::size_t>(std::atoll(next("nodes")));
    } else if (arg == "--mem-budget") {
      options.admission.memory_budget_bytes =
          static_cast<std::size_t>(std::atoll(next("bytes")));
    } else if (arg == "--threads") {
      options.run_template.num_threads =
          static_cast<std::size_t>(std::atoll(next("threads")));
    } else if (arg == "--default-deadline") {
      options.default_deadline_seconds = std::atof(next("seconds"));
    } else if (arg == "--idle-timeout") {
      options.idle_timeout_seconds = std::atof(next("seconds"));
    } else if (arg == "--drain-deadline") {
      drain_deadline = std::atof(next("seconds"));
    } else if (arg == "--trace-dir") {
      options.trace_dir = next("directory");
    } else if (arg == "--trace-sample") {
      options.trace_sample_rate = std::atof(next("fraction"));
    } else if (arg == "--trace-slow-ms") {
      options.trace_slow_ms = std::atof(next("milliseconds"));
    } else if (arg == "--slo-p99") {
      options.default_slo.target_p99_ms = std::atof(next("milliseconds"));
    } else if (arg == "--slo-budget") {
      options.default_slo.error_budget = std::atof(next("fraction"));
    } else if (arg == "--tenant-slo") {
      std::string tenant = next("tenant");
      SloPolicy policy;
      policy.target_p99_ms = std::atof(next("p99 ms"));
      policy.error_budget = std::atof(next("error budget"));
      options.tenant_slos[tenant] = policy;
    } else if (arg == "--flight-capacity") {
      options.flight_capacity =
          static_cast<std::size_t>(std::atoll(next("records")));
    } else if (arg == "--crash-dump") {
      options.crash_dump_path = next("path");
    } else {
      return Usage(argv[0]);
    }
  }

  Catalog catalog;
  StatisticsRegistry stats;
  if (load_kind == "tpch") {
    PopulateTpch(TpchConfig{tpch_sf, 42}, &catalog);
    std::printf("loaded TPC-H at SF %g (%zu rows total)\n", tpch_sf,
                catalog.TotalRows());
  } else {
    PopulateSyntheticCatalog(synthetic, &catalog);
    std::printf("loaded r1..r%zu (card %zu, selectivity %zu%%)\n",
                synthetic.num_relations, synthetic.cardinality,
                synthetic.selectivity);
  }
  stats.AnalyzeAll(catalog);

  options.host = host;
  options.port = port;
  options.enable_metrics_http = metrics;
  options.metrics_http_port = metrics_port;
  options.run_template.mode = OptimizerMode::kQhdHybrid;
  options.run_template.use_plan_cache = true;

  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "self-pipe failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  // No SA_RESTART: the park loop below must come back from read() after a
  // signal. Sanitizer runtimes defer user handlers to the next interception
  // point; a transparently restarted read() never reaches one, so with
  // SA_RESTART a TSan build would absorb SIGTERM and park forever. Every
  // other syscall here already loops on EINTR.
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  QueryServer server(&catalog, &stats, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", host.c_str(), server.port());
  if (metrics) {
    std::printf("metrics on http://%s:%u/metrics\n", host.c_str(),
                server.metrics_http_port());
    std::printf("debug on http://%s:%u/debug/{sessions,queues,cache,slow}\n",
                host.c_str(), server.metrics_http_port());
  }
  if (!options.trace_dir.empty()) {
    std::printf("tracing to %s (sample %g, slow >= %gms)\n",
                options.trace_dir.c_str(), options.trace_sample_rate,
                options.trace_slow_ms);
  }
  std::fflush(stdout);

  // Park until a shutdown signal lands in the self-pipe.
  char byte;
  ssize_t n;
  do {
    n = read(g_signal_pipe[0], &byte, 1);
  } while (n < 0 && errno == EINTR);

  std::printf("draining (deadline %gs)...\n", drain_deadline);
  std::fflush(stdout);
  std::size_t cancelled = 0;
  Status drained = server.Drain(drain_deadline, &cancelled);
  std::printf("drained: %zu straggler(s) cancelled\n", cancelled);
  return drained.ok() ? 0 : 1;
}
