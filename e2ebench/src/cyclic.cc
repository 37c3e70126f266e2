// cyclic: the paper's Acyclic (line) and Chain query families of 4..12
// atoms over r1..r12 (cardinality 500, selectivity 30), q-HD hybrid on one
// thread with the plan cache off. The join -> project -> distinct inside
// each decomposition node dominates, then the decomposition search; being
// serial, it should not move with thread-pool changes.

#include <memory>
#include <numeric>

#include "inproc.h"
#include "reference.h"
#include "workload/query_gen.h"

namespace e2e {

namespace {

constexpr std::size_t kMinAtoms = 4;
constexpr std::size_t kMaxAtoms = 12;


// One of r1..r12: 500 rows over the 150 values that selectivity 30 gives
// (as PopulateSyntheticCatalog draws them). Each column holds 145 of the
// 150 values, 65 of them 4 times and 80 of them 3 times: the distinct count
// uniform draws give on average, without their Poisson spread of value
// counts, which made the chain queries' intermediate sizes, time and peak
// memory swing by 2x from one seed to the next. Which values are missing
// or repeat, and how a pairs with b, is random; the missing values end
// some walks, so line and chain answers differ.
htqo::Relation MakeRelation(htqo::Rng* rng) {
  constexpr int64_t kValues = 150;
  constexpr int64_t kPresent = 145;
  constexpr int64_t kFourTimes = 65;  // 65 * 4 + 80 * 3 = 500 rows
  std::vector<int64_t> columns[2];
  for (std::vector<int64_t>& col : columns) {
    std::vector<int64_t> values(kValues);
    std::iota(values.begin(), values.end(), 0);
    Shuffle(&values, rng);
    for (int64_t i = 0; i < kPresent; ++i) {
      col.insert(col.end(), i < kFourTimes ? 4 : 3, values[i]);
    }
    Shuffle(&col, rng);
  }
  htqo::Relation rel{htqo::Schema(
      {{"a", htqo::ValueType::kInt64}, {"b", htqo::ValueType::kInt64}})};
  for (std::size_t i = 0; i < columns[0].size(); ++i) {
    rel.AddRow({htqo::Value::Int64(columns[0][i]),
                htqo::Value::Int64(columns[1][i])});
  }
  return rel;
}

class CyclicWorkload : public Workload {
 public:
  explicit CyclicWorkload(uint64_t seed) : seed_(seed) {
    options_.mode = htqo::OptimizerMode::kQhdHybrid;
    options_.num_threads = 1;
    options_.use_plan_cache = false;
    for (std::size_t n = kMinAtoms; n <= kMaxAtoms; ++n) {
      queries_.push_back({htqo::LineQuerySql(n), n, false});
      queries_.push_back({htqo::ChainQuerySql(n), n, true});
    }
  }

  SetupTimes Setup() override {
    SetupTimes times;
    optimizer_.reset();
    stats_.reset();
    db_.reset();
    const auto start = Clock::now();
    db_ = std::make_unique<htqo::Catalog>();
    htqo::Rng rng(seed_);
    for (std::size_t i = 1; i <= kMaxAtoms; ++i) {
      db_->Put(std::string("r") + std::to_string(i), MakeRelation(&rng));
    }
    times.load_s = SecondsSince(start);
    const auto analyze_start = Clock::now();
    stats_ = std::make_unique<htqo::StatisticsRegistry>();
    stats_->AnalyzeAll(*db_);
    times.analyze_s = SecondsSince(analyze_start);
    optimizer_ =
        std::make_unique<htqo::HybridOptimizer>(db_.get(), stats_.get());
    PassStats warm;
    RunQueries(false, &warm);
    times.total_s = SecondsSince(start);
    if (refs_.empty()) {
      for (const Query& q : queries_) {
        refs_.push_back(q.chain ? ReferenceChain(*db_, q.atoms)
                                : ReferenceLine(*db_, q.atoms));
      }
    }
    Check(&warm);
    times.warmup_wrong = warm.wrong + warm.failed;
    return times;
  }

  void Run(double seconds, bool traced, PassStats* stats) override {
    RunRounds(seconds, stats, [&] {
      RunQueries(traced, stats);
      Check(stats);
    });
  }

 private:
  struct Query {
    std::string sql;
    std::size_t atoms;
    bool chain;
    htqo::Result<htqo::QueryRun> last = htqo::Status::Internal("not run");
  };

  void RunQueries(bool traced, PassStats* stats) {
    for (Query& q : queries_) {
      q.last = TimedQuery(*optimizer_, q.sql, options_, traced, stats);
    }
  }

  void Check(PassStats* stats) const {
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i].last.ok() &&
          !SameInts(queries_[i].last->output, refs_[i])) {
        ReportWrong(stats, "answer differs from reference: " + queries_[i].sql);
      }
    }
  }

  uint64_t seed_;
  htqo::RunOptions options_;
  std::vector<Query> queries_;
  std::vector<std::vector<int64_t>> refs_;
  std::unique_ptr<htqo::Catalog> db_;
  std::unique_ptr<htqo::StatisticsRegistry> stats_;
  std::unique_ptr<htqo::HybridOptimizer> optimizer_;
};

}  // namespace

std::unique_ptr<Workload> MakeCyclicWorkload(uint64_t seed) {
  return std::make_unique<CyclicWorkload>(seed);
}

}  // namespace e2e
