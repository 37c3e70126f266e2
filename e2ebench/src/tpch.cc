// tpch: TPC-H Q5 (3 regions x 2 dates), flat Q8 and nested Q8 (2 parameter
// pairs each) at SF 0.05, q-HD hybrid on 4 threads with the plan cache on.
// Execution dominates; scan and join kernels and thread scaling show here.

#include <memory>

#include "cache/decomp_cache.h"
#include "inproc.h"
#include "reference.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace e2e {

namespace {

constexpr double kScaleFactor = 0.05;

class TpchWorkload : public Workload {
 public:
  explicit TpchWorkload(uint64_t seed) : seed_(seed) {
    options_.mode = htqo::OptimizerMode::kQhdHybrid;
    options_.num_threads = 4;
    options_.use_plan_cache = true;
    for (const char* region : {"ASIA", "EUROPE", "AMERICA"}) {
      for (const char* date : {"1994-01-01", "1995-01-01"}) {
        queries_.push_back({htqo::TpchQ5(region, date), Kind::kQ5, region,
                            date});
      }
    }
    const std::pair<const char*, const char*> q8_params[] = {
        {"AMERICA", "ECONOMY ANODIZED STEEL"},
        {"EUROPE", "STANDARD POLISHED BRASS"}};
    for (const auto& [region, type] : q8_params) {
      queries_.push_back({htqo::TpchQ8(region, type), Kind::kQ8, region, type});
      queries_.push_back(
          {htqo::TpchQ8Nested(region, type), Kind::kQ8Nested, region, type});
    }
  }

  SetupTimes Setup() override {
    SetupTimes times;
    optimizer_.reset();
    stats_.reset();
    db_.reset();
    htqo::DecompCache::Global().Clear();
    const auto start = Clock::now();
    db_ = std::make_unique<htqo::Catalog>();
    htqo::PopulateTpch({kScaleFactor, seed_}, db_.get());
    times.load_s = SecondsSince(start);
    const auto analyze_start = Clock::now();
    stats_ = std::make_unique<htqo::StatisticsRegistry>();
    stats_->AnalyzeAll(*db_);
    times.analyze_s = SecondsSince(analyze_start);
    optimizer_ =
        std::make_unique<htqo::HybridOptimizer>(db_.get(), stats_.get());
    PassStats warm;
    for (Query& q : queries_) {
      q.last = TimedQuery(*optimizer_, q.sql, options_, false, &warm);
    }
    times.total_s = SecondsSince(start);
    if (q5_refs_.empty()) {
      for (const Query& q : queries_) {
        if (q.kind == Kind::kQ5) {
          q5_refs_.push_back(ReferenceQ5(*db_, q.param1, q.param2));
        } else if (q.kind == Kind::kQ8) {
          q8_refs_.push_back(ReferenceQ8(*db_, q.param1, q.param2));
        }
      }
    }
    Check(&warm);
    times.warmup_wrong = warm.wrong + warm.failed;
    return times;
  }

  void Run(double seconds, bool traced, PassStats* stats) override {
    RunRounds(seconds, stats, [&] {
      for (Query& q : queries_) {
        q.last = TimedQuery(*optimizer_, q.sql, options_, traced, stats);
      }
      Check(stats);
    });
  }

 private:
  enum class Kind { kQ5, kQ8, kQ8Nested };
  struct Query {
    std::string sql;
    Kind kind;
    std::string param1, param2;
    htqo::Result<htqo::QueryRun> last = htqo::Status::Internal("not run");
  };

  // Checks the round's answers against the references, and nested Q8
  // against the flat Q8 of the same parameters.
  void Check(PassStats* stats) const {
    std::size_t q5 = 0, q8 = 0;
    const htqo::Relation* flat = nullptr;
    for (const Query& q : queries_) {
      if (!q.last.ok()) {
        flat = nullptr;
        continue;
      }
      const htqo::Relation& out = q.last->output;
      const bool ok = q.kind == Kind::kQ5 ? SameGroups(out, q5_refs_[q5++])
                                          : SameGroups(out, q8_refs_[q8]);
      if (!ok) {
        ReportWrong(stats, "answer differs from reference: " + q.sql +
                               "\n  got " + out.ToString(8));
      }
      if (q.kind == Kind::kQ8) {
        flat = &out;
      } else if (q.kind == Kind::kQ8Nested) {
        ++q8;
        if (flat != nullptr && !SameNested(*flat, out)) {
          ReportWrong(stats, "nested Q8 differs from flat Q8: " + q.param1);
        }
      }
    }
  }

  static bool SameNested(const htqo::Relation& flat,
                         const htqo::Relation& nested) {
    if (flat.NumRows() != nested.NumRows() || flat.arity() != nested.arity()) {
      return false;
    }
    for (std::size_t i = 0; i < flat.NumRows(); ++i) {
      if (flat.At(i, 0) != nested.At(i, 0) ||
          !CloseTo(flat.At(i, 1).AsDouble(), nested.At(i, 1).AsDouble())) {
        return false;
      }
    }
    return true;
  }

  uint64_t seed_;
  htqo::RunOptions options_;
  std::vector<Query> queries_;
  std::vector<std::vector<std::pair<std::string, double>>> q5_refs_;
  std::vector<std::vector<std::pair<int64_t, double>>> q8_refs_;
  std::unique_ptr<htqo::Catalog> db_;
  std::unique_ptr<htqo::StatisticsRegistry> stats_;
  std::unique_ptr<htqo::HybridOptimizer> optimizer_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchWorkload(uint64_t seed) {
  return std::make_unique<TpchWorkload>(seed);
}

}  // namespace e2e
