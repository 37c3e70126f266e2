// served_mix: an in-process QueryServer on loopback with 4 closed-loop
// Clients in two tenants, serving TPC-H Q5/Q8 at SF 0.01 plus short line
// and chain queries, with server defaults and the plan cache on. The only
// workload that goes through src/server (protocol, admission, session).

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "cache/decomp_cache.h"
#include "layers.h"
#include "reference.h"
#include "server/client.h"
#include "server/server.h"
#include "util/strings.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace e2e {

namespace {

constexpr double kScaleFactor = 0.01;
constexpr std::size_t kClients = 4;

// What a reply must render: grouped sums in order, or a set of int64s.
struct Expected {
  std::vector<std::string> keys;  // grouped: rendered group keys, in order
  std::vector<double> sums;
  std::set<int64_t> ints;
  bool grouped = false;
  std::size_t rows() const { return grouped ? sums.size() : ints.size(); }
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Checks the row count and every rendered row (Relation::ToString form:
// a "schema [N rows]" header, then "  (v1, v2)" lines, "  ..." when cut).
bool ReplyMatches(const htqo::QueryReply& reply, const Expected& want,
                  std::size_t max_rows) {
  if (reply.rows != want.rows()) return false;
  const std::vector<std::string> lines = SplitLines(reply.result_text);
  const std::string tag =
      std::string(" [") + std::to_string(want.rows()) + " rows]";
  if (lines.empty() || !lines[0].ends_with(tag)) return false;
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (l == "  ...") continue;
    if (!l.starts_with("  (") || !l.ends_with(")")) return false;
    rows.push_back(htqo::Split(l.substr(3, l.size() - 4), ','));
    for (std::string& cell : rows.back()) {
      cell.erase(0, cell.find_first_not_of(' '));
    }
  }
  if (rows.size() != std::min(want.rows(), max_rows)) return false;
  std::set<int64_t> seen;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (want.grouped) {
      if (rows[r].size() != 2 || rows[r][0] != want.keys[r]) {
        return false;
      }
      const double got = std::strtod(rows[r][1].c_str(), nullptr);
      const double ref = want.sums[r];
      if (std::abs(got - ref) > 1e-5 * std::max(1.0, std::abs(ref))) {
        return false;
      }
    } else {
      if (rows[r].size() != 1) return false;
      const int64_t v = std::strtoll(rows[r][0].c_str(), nullptr, 10);
      if (want.ints.count(v) == 0 || !seen.insert(v).second) return false;
    }
  }
  return true;
}

class ServedMixWorkload : public Workload {
 public:
  ServedMixWorkload(uint64_t seed, std::string work_dir)
      : seed_(seed), trace_dir_(std::move(work_dir) + "/server_traces") {
    BuildQueries();
  }

  ~ServedMixWorkload() override { StopServers(); }

  SetupTimes Setup() override {
    SetupTimes times;
    StopServers();
    stats_.reset();
    db_.reset();
    htqo::DecompCache::Global().Clear();
    const auto start = Clock::now();
    db_ = std::make_unique<htqo::Catalog>();
    htqo::PopulateTpch({kScaleFactor, seed_}, db_.get());
    htqo::SyntheticConfig synthetic;
    synthetic.cardinality = 500;
    synthetic.selectivity = 30;
    synthetic.num_relations = 5;
    synthetic.seed = seed_ + 1;
    htqo::PopulateSyntheticCatalog(synthetic, db_.get());
    times.load_s = SecondsSince(start);
    const auto analyze_start = Clock::now();
    stats_ = std::make_unique<htqo::StatisticsRegistry>();
    stats_->AnalyzeAll(*db_);
    times.analyze_s = SecondsSince(analyze_start);
    StartServer(false, &server_, &clients_);
    PassStats warm;
    for (std::size_t q = 0; q < queries_.size(); ++q) Ask(0, q, &warm);
    times.total_s = SecondsSince(start);
    if (!expected_ready_) {
      for (Query& q : queries_) q.expected = q.reference();
      expected_ready_ = true;
    }
    times.warmup_wrong = warm.wrong + warm.failed;
    return times;
  }

  void Run(double seconds, bool traced, PassStats* stats) override {
    if (traced && traced_server_ == nullptr) {
      std::filesystem::create_directories(trace_dir_);
      StartServer(true, &traced_server_, &traced_clients_);
    }
    std::vector<PassStats> per_client(kClients);
    std::vector<std::vector<double>> done(kClients);  // completion offsets
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        do {
          // Clients start the mix at different offsets.
          for (std::size_t i = 0; i < queries_.size(); ++i) {
            if (Ask(c, (i + 2 * c) % queries_.size(), &per_client[c],
                    traced)) {
              done[c].push_back(SecondsSince(start));
            }
          }
          ++per_client[c].rounds;
        } while (SecondsSince(start) < seconds);
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = SecondsSince(start);
    for (const PassStats& p : per_client) stats->Merge(p);
    stats->busy_s += wall;
    // Completions per whole second of the pass.
    std::vector<double> per_second(static_cast<std::size_t>(wall), 0);
    for (const auto& offsets : done) {
      for (double t : offsets) {
        if (t < static_cast<double>(per_second.size())) {
          ++per_second[static_cast<std::size_t>(t)];
        }
      }
    }
    stats->rates.insert(stats->rates.end(), per_second.begin(),
                        per_second.end());
    if (traced) FoldServerTraces(stats);
  }

 private:
  void StartServer(bool traced, std::unique_ptr<htqo::QueryServer>* server,
                   std::vector<std::unique_ptr<htqo::Client>>* clients) {
    htqo::ServerOptions options;
    options.run_template.use_plan_cache = true;
    if (traced) {
      options.trace_dir = trace_dir_;
      options.trace_sample_rate = 1.0;
    }
    *server = std::make_unique<htqo::QueryServer>(db_.get(), stats_.get(),
                                                  options);
    HTQO_CHECK((*server)->Start().ok());
    max_rows_ = options.max_result_rows;
    for (std::size_t c = 0; c < kClients; ++c) {
      htqo::ClientOptions copt;
      copt.port = (*server)->port();
      copt.tenant = c < kClients / 2 ? "alpha" : "beta";
      copt.backoff_jitter_seed = seed_ + c;
      clients->push_back(std::make_unique<htqo::Client>(copt));
      HTQO_CHECK(clients->back()->Connect().ok());
    }
  }

  void StopServers() {
    clients_.clear();
    traced_clients_.clear();
    if (server_ != nullptr) (void)server_->Drain(5);
    if (traced_server_ != nullptr) (void)traced_server_->Drain(5);
    server_.reset();
    traced_server_.reset();
  }

  // The mix's SQL; reference answers are filled in after the first set-up
  // (ComputeExpected), from the generated data.
  void BuildQueries() {
    auto q5 = [&](std::string region, std::string date) {
      queries_.push_back({htqo::TpchQ5(region, date), [=, this] {
                            Expected e;
                            e.grouped = true;
                            for (const auto& [name, sum] :
                                 ReferenceQ5(*db_, region, date)) {
                              e.keys.push_back(name);
                              e.sums.push_back(sum);
                            }
                            return e;
                          }, {}});
    };
    auto q8 = [&](std::string region, std::string type) {
      queries_.push_back({htqo::TpchQ8(region, type), [=, this] {
                            Expected e;
                            e.grouped = true;
                            for (const auto& [year, sum] :
                                 ReferenceQ8(*db_, region, type)) {
                              e.keys.push_back(std::to_string(year));
                              e.sums.push_back(sum);
                            }
                            return e;
                          }, {}});
    };
    auto line = [&](std::size_t n, bool chain) {
      queries_.push_back(
          {chain ? htqo::ChainQuerySql(n) : htqo::LineQuerySql(n),
           [=, this] {
             Expected e;
             for (int64_t v : chain ? ReferenceChain(*db_, n)
                                    : ReferenceLine(*db_, n)) {
               e.ints.insert(v);
             }
             return e;
           }, {}});
    };
    q5("ASIA", "1994-01-01");
    line(3, false);
    line(3, true);
    q8("AMERICA", "ECONOMY ANODIZED STEEL");
    line(4, false);
    line(4, true);
    q5("EUROPE", "1995-01-01");
    line(5, false);
    line(5, true);
  }

  // One query from client `c`, timed as the caller sees it, then checked.
  // False when the query failed.
  bool Ask(std::size_t c, std::size_t q, PassStats* stats,
           bool traced = false) {
    htqo::Client& client = traced ? *traced_clients_[c] : *clients_[c];
    ++stats->attempted;
    const auto start = Clock::now();
    htqo::Result<htqo::QueryReply> reply = client.Query(queries_[q].sql);
    const double seconds = SecondsSince(start);
    if (!reply.ok()) {
      if (stats->failed++ < 10) {
        std::fprintf(stderr, "FAILED: %s\n", reply.status().ToString().c_str());
      }
      return false;
    }
    ++stats->queries;
    stats->latencies_s.push_back(seconds);
    stats->queue_wait_ms += static_cast<double>(reply->queued_us) / 1e3;
    stats->server_overhead_ms +=
        seconds * 1e3 - reply->plan_ms - reply->exec_ms;
    if (reply->degradations > 0 || reply->admission_level > 0) {
      ++stats->degraded;
    }
    stats->sheds_retried += static_cast<uint64_t>(reply->sheds_retried);
    if (expected_ready_ &&
        !ReplyMatches(*reply, queries_[q].expected, max_rows_)) {
      ReportWrong(stats, "reply differs from reference: " + queries_[q].sql);
    }
    return true;
  }

  // Folds every per-query trace file the traced server exported, then
  // removes them.
  void FoldServerTraces(PassStats* stats) const {
    for (const auto& entry : std::filesystem::directory_iterator(trace_dir_)) {
      std::ifstream in(entry.path());
      std::stringstream text;
      text << in.rdbuf();
      FoldSpans(SpansOfChromeJson(text.str()), &stats->ledger);
      std::filesystem::remove(entry.path());
    }
  }

  struct Query {
    std::string sql;
    std::function<Expected()> reference;
    Expected expected;
  };

  uint64_t seed_;
  std::string trace_dir_;
  std::size_t max_rows_ = 0;
  std::vector<Query> queries_;
  bool expected_ready_ = false;
  std::unique_ptr<htqo::Catalog> db_;
  std::unique_ptr<htqo::StatisticsRegistry> stats_;
  std::unique_ptr<htqo::QueryServer> server_;
  std::unique_ptr<htqo::QueryServer> traced_server_;
  std::vector<std::unique_ptr<htqo::Client>> clients_;
  std::vector<std::unique_ptr<htqo::Client>> traced_clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeServedMixWorkload(uint64_t seed,
                                                const std::string& work_dir) {
  return std::make_unique<ServedMixWorkload>(seed, work_dir);
}

}  // namespace e2e
