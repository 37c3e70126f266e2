// Client for the htqo query server: one-shot queries and a load-test
// harness.
//
// One-shot (SQL from the command line or stdin):
//
//   $ ./htqo_client --port 7070 --tenant acme "SELECT ... ;"
//   $ echo "SELECT ... ;" | ./htqo_client --port 7070
//
// Load test (the CI server job and tools/check.sh --server run this):
//
//   $ ./htqo_client --port 7070 --loadtest --clients 4,16,64 --queries 10
//
// (add --json BENCH_server.json to record every level as JSON).
//
// Each level spawns N worker threads across 4 tenants (t0..t3), every
// worker running the query template with a per-query deadline, honoring
// shed retry-after hints with jittered backoff (that logic lives in
// Client::Query — this binary is deliberately dumb about it). A chaos
// client runs alongside: it connects, sends a query, and vanishes without
// reading the response, over and over — the server must shrug that off
// with zero effect on the workers' results.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "workload/tpch_queries.h"

namespace {

using namespace htqo;

struct LevelResult {
  int clients = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t sheds_retried = 0;   // retries absorbed by the backoff loop
  uint64_t sheds_final = 0;     // queries that stayed shed after retries
  uint64_t deadline_errors = 0;
  uint64_t degraded = 0;        // OK responses planned at admission level > 0
  uint64_t backoff_ms = 0;
  double wall_seconds = 0;
  double throughput_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(idx + 0.5)];
}

// Chaos client: repeatedly HELLO + QUERY, then hang up without reading the
// response — simulating a peer that dies mid-query.
void ChaosLoop(const std::string& host, uint16_t port, const std::string& sql,
               std::atomic<bool>* stop, uint64_t* disconnects) {
  while (!stop->load(std::memory_order_relaxed)) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) break;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      Frame hello;
      hello.type = FrameType::kHello;
      hello.fields["tenant"] = "chaos";
      (void)WriteFrame(fd, hello);
      Frame query;
      query.type = FrameType::kQuery;
      query.payload = sql;
      (void)WriteFrame(fd, query);
      ++*disconnects;  // close with the response (and maybe query) in flight
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

LevelResult RunLevel(const std::string& host, uint16_t port, int clients,
                     int queries_per_client, const std::string& sql,
                     uint64_t deadline_ms, bool chaos,
                     const std::string& trace_dir) {
  LevelResult result;
  result.clients = clients;
  std::mutex mu;
  std::vector<double> latencies_ms;

  std::atomic<bool> stop_chaos{false};
  uint64_t chaos_disconnects = 0;
  std::thread chaos_thread;
  if (chaos) {
    chaos_thread = std::thread(
        [&] { ChaosLoop(host, port, sql, &stop_chaos, &chaos_disconnects); });
  }

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int w = 0; w < clients; ++w) {
    workers.emplace_back([&, w] {
      ClientOptions copts;
      copts.host = host;
      copts.port = port;
      copts.tenant = "t" + std::to_string(w % 4);
      copts.backoff_jitter_seed = 1000 + static_cast<uint64_t>(w);
      // One traced worker per level is enough to produce client-initiated
      // stitched traces without drowning the trace directory.
      if (w == 0) copts.trace_dir = trace_dir;
      Client client(copts);
      if (!client.Connect().ok()) {
        std::lock_guard<std::mutex> lock(mu);
        result.errors += static_cast<uint64_t>(queries_per_client);
        return;
      }
      for (int q = 0; q < queries_per_client; ++q) {
        const auto t0 = std::chrono::steady_clock::now();
        auto reply = client.Query(sql, deadline_ms);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::lock_guard<std::mutex> lock(mu);
        if (reply.ok()) {
          ++result.ok;
          latencies_ms.push_back(ms);
          result.sheds_retried +=
              static_cast<uint64_t>(reply->sheds_retried);
          result.backoff_ms += reply->backoff_ms;
          if (reply->admission_level > 0) ++result.degraded;
        } else {
          ++result.errors;
          if (reply.status().code() == StatusCode::kResourceExhausted) {
            ++result.sheds_final;
          } else if (reply.status().code() ==
                     StatusCode::kDeadlineExceeded) {
            ++result.deadline_errors;
          }
        }
      }
      client.Close();
    });
  }
  for (std::thread& t : workers) t.join();
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  if (chaos) {
    stop_chaos.store(true, std::memory_order_relaxed);
    chaos_thread.join();
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = Percentile(latencies_ms, 50);
  result.p99_ms = Percentile(latencies_ms, 99);
  result.throughput_qps = result.wall_seconds > 0
                              ? static_cast<double>(result.ok) /
                                    result.wall_seconds
                              : 0;
  std::printf(
      "clients=%3d  ok=%llu errors=%llu (shed=%llu deadline=%llu)  "
      "retries=%llu backoff=%llums degraded=%llu  "
      "qps=%.1f p50=%.1fms p99=%.1fms  chaos_disconnects=%llu\n",
      clients, static_cast<unsigned long long>(result.ok),
      static_cast<unsigned long long>(result.errors),
      static_cast<unsigned long long>(result.sheds_final),
      static_cast<unsigned long long>(result.deadline_errors),
      static_cast<unsigned long long>(result.sheds_retried),
      static_cast<unsigned long long>(result.backoff_ms),
      static_cast<unsigned long long>(result.degraded),
      result.throughput_qps, result.p50_ms, result.p99_ms,
      static_cast<unsigned long long>(chaos ? chaos_disconnects : 0));
  std::fflush(stdout);
  return result;
}

void WriteBenchJson(const std::string& path,
                    const std::vector<LevelResult>& levels,
                    const std::string& metrics_text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  // Shed/drain counters scraped from the server, so the bench file records
  // not just client-side latency but what admission control actually did.
  auto scrape = [&](const char* name) -> long long {
    std::istringstream in(metrics_text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(name, 0) == 0 && line.size() > std::strlen(name) &&
          line[std::strlen(name)] == ' ') {
        return std::atoll(line.c_str() + std::strlen(name) + 1);
      }
    }
    return -1;
  };
  std::fprintf(f, "{\n  \"bench\": \"server\",\n  \"levels\": [\n");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& r = levels[i];
    std::fprintf(
        f,
        "    {\"clients\": %d, \"ok\": %llu, \"errors\": %llu, "
        "\"sheds_final\": %llu, \"deadline_errors\": %llu, "
        "\"sheds_retried\": %llu, \"backoff_ms\": %llu, "
        "\"degraded\": %llu, \"wall_seconds\": %.3f, "
        "\"throughput_qps\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
        r.clients, static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.sheds_final),
        static_cast<unsigned long long>(r.deadline_errors),
        static_cast<unsigned long long>(r.sheds_retried),
        static_cast<unsigned long long>(r.backoff_ms),
        static_cast<unsigned long long>(r.degraded), r.wall_seconds,
        r.throughput_qps, r.p50_ms, r.p99_ms,
        i + 1 < levels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"server_metrics\": {\n");
  const char* scraped[] = {
      "htqo_admission_admitted_total",  "htqo_admission_queued_total",
      "htqo_admission_shed_total",      "htqo_admission_queue_timeout_total",
      "htqo_admission_degraded_total",  "htqo_server_connections_total",
      "htqo_server_queries_total",      "htqo_server_protocol_errors_total",
  };
  for (std::size_t i = 0; i < sizeof(scraped) / sizeof(scraped[0]); ++i) {
    std::fprintf(f, "    \"%s\": %lld%s\n", scraped[i], scrape(scraped[i]),
                 i + 1 < sizeof(scraped) / sizeof(scraped[0]) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port <p> [options] [\"SQL;\"]\n"
      "  --host <addr>        server address (default 127.0.0.1)\n"
      "  --tenant <name>      tenant for HELLO (default: default)\n"
      "  --deadline-ms <d>    per-query deadline (default 0 = server "
      "default)\n"
      "  --metrics            print the server's Prometheus metrics and "
      "exit\n"
      "  --debug <what>       print a /debug JSON document and exit; <what> "
      "is\n"
      "                       sessions|queues|cache|slow|record|build\n"
      "  --id <n>             flight-record id for --debug record\n"
      "  --n <k>              slow-log bound for --debug slow\n"
      "  --trace-dir <dir>    trace queries client-side; send trace context "
      "so\n"
      "                       the server's spans stitch under ours\n"
      "  --loadtest           run the concurrency sweep instead of one "
      "query\n"
      "  --clients <a,b,c>    sweep levels (default 4,16,64)\n"
      "  --queries <n>        queries per client per level (default 10)\n"
      "  --no-chaos           disable the disconnecting chaos client\n"
      "  --json <path>        write BENCH_server.json-style results\n"
      "With no SQL argument, the query is read from stdin (one-shot) or\n"
      "defaults to TPC-H Q5 (loadtest).\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string tenant = "default";
  uint64_t deadline_ms = 0;
  bool loadtest = false;
  bool metrics_only = false;
  bool chaos = true;
  std::vector<int> levels = {4, 16, 64};
  int queries_per_client = 10;
  std::string json_path;
  std::string sql;
  std::string debug_what;
  uint64_t debug_id = 0;
  uint64_t debug_n = 0;
  std::string trace_dir;

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
    } else if (arg == "--tenant") {
      tenant = next("name");
    } else if (arg == "--deadline-ms") {
      deadline_ms = static_cast<uint64_t>(std::atoll(next("ms")));
    } else if (arg == "--metrics") {
      metrics_only = true;
    } else if (arg == "--debug") {
      debug_what = next("what");
    } else if (arg == "--id") {
      debug_id = static_cast<uint64_t>(std::atoll(next("record id")));
    } else if (arg == "--n") {
      debug_n = static_cast<uint64_t>(std::atoll(next("count")));
    } else if (arg == "--trace-dir") {
      trace_dir = next("directory");
    } else if (arg == "--loadtest") {
      loadtest = true;
    } else if (arg == "--no-chaos") {
      chaos = false;
    } else if (arg == "--clients") {
      levels.clear();
      std::istringstream in(next("levels"));
      std::string token;
      while (std::getline(in, token, ',')) {
        levels.push_back(std::atoi(token.c_str()));
      }
    } else if (arg == "--queries") {
      queries_per_client = std::atoi(next("count"));
    } else if (arg == "--json") {
      json_path = next("path");
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      sql = arg;
    }
  }
  if (port == 0) return Usage(argv[0]);

  if (!debug_what.empty()) {
    ClientOptions copts;
    copts.host = host;
    copts.port = port;
    copts.tenant = tenant;
    Client client(copts);
    Status s = client.Connect();
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    auto json = client.Debug(debug_what, debug_id, debug_n);
    if (!json.ok()) {
      std::fprintf(stderr, "error: %s\n", json.status().ToString().c_str());
      client.Close();
      return 1;
    }
    std::printf("%s\n", json->c_str());
    client.Close();
    return 0;
  }

  if (metrics_only) {
    ClientOptions copts;
    copts.host = host;
    copts.port = port;
    copts.tenant = tenant;
    Client client(copts);
    Status s = client.Connect();
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    auto text = client.Metrics();
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", text->c_str());
    client.Close();
    return 0;
  }

  if (loadtest) {
    if (sql.empty()) sql = TpchQ5();
    if (deadline_ms == 0) deadline_ms = 15000;
    std::vector<LevelResult> results;
    for (int clients : levels) {
      results.push_back(RunLevel(host, port, clients, queries_per_client,
                                 sql, deadline_ms, chaos, trace_dir));
    }
    if (!json_path.empty()) {
      ClientOptions copts;
      copts.host = host;
      copts.port = port;
      copts.tenant = "bench";
      Client client(copts);
      std::string metrics_text;
      if (client.Connect().ok()) {
        auto text = client.Metrics();
        if (text.ok()) metrics_text = std::move(text.value());
        client.Close();
      }
      WriteBenchJson(json_path, results, metrics_text);
    }
    uint64_t total_errors = 0;
    for (const LevelResult& r : results) total_errors += r.errors;
    // Sheds and deadline misses are the protocol working as designed under
    // overload; anything else (internal, invalid) fails the harness.
    for (const LevelResult& r : results) {
      uint64_t unexplained =
          r.errors - r.sheds_final - r.deadline_errors;
      if (unexplained > 0) {
        std::fprintf(stderr,
                     "FAIL: %llu unexplained errors at %d clients\n",
                     static_cast<unsigned long long>(unexplained), r.clients);
        return 1;
      }
    }
    return 0;
  }

  if (sql.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    sql = buffer.str();
  }
  if (sql.empty()) return Usage(argv[0]);

  ClientOptions copts;
  copts.host = host;
  copts.port = port;
  copts.tenant = tenant;
  copts.trace_dir = trace_dir;
  Client client(copts);
  Status s = client.Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  auto reply = client.Query(sql, deadline_ms);
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reply.status().ToString().c_str());
    client.Close();
    return 1;
  }
  std::printf("%s", reply->result_text.c_str());
  std::printf(
      "rows=%llu plan=%.2fms exec=%.2fms queued=%lluus%s%s\n",
      static_cast<unsigned long long>(reply->rows), reply->plan_ms,
      reply->exec_ms, static_cast<unsigned long long>(reply->queued_us),
      reply->admission_level > 0 ? " (degraded admission)" : "",
      reply->sheds_retried > 0 ? " (retried after shed)" : "");
  client.Close();
  return 0;
}
