// plan_churn: cyclic query shapes (3x3, 3x4 and 2x6 grids, a 12-cycle, 6-
// and 8-spoke wheels, K5, K6) over four 30-row binary relations, each
// query a random atom-order relabelling of one shape, q-HD hybrid with the
// plan cache on. Every 16th operation replaces one relation and puts fresh
// statistics for it, which makes the cached plans over it stale. Planning
// dominates: hits exercise canonical labelling, rebind and Procedure
// Optimize; stale misses re-run cost-k-decomp.

#include <memory>
#include <numeric>

#include "cache/decomp_cache.h"
#include "inproc.h"
#include "reference.h"
#include "util/strings.h"

namespace e2e {

namespace {

constexpr std::size_t kRelations = 4;
constexpr int64_t kDomain = 10;
constexpr int kDegree = 3;  // rows per value in each column: 30 rows
constexpr std::size_t kWriteEvery = 16;
constexpr std::size_t kOpsPerRound = 64;  // 60 queries, 4 writes

std::string RelationName(std::size_t k) {
  return std::string("g") + std::to_string(k + 1);
}

Shape MakeShape(std::string name, std::size_t num_vars,
                std::vector<std::pair<int, int>> edges) {
  Shape s;
  s.name = std::move(name);
  s.num_vars = num_vars;
  s.edges = std::move(edges);
  return s;
}

Shape Grid(int rows, int cols) {
  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      if (c + 1 < cols) edges.emplace_back(v, v + 1);
      if (r + 1 < rows) edges.emplace_back(v, v + cols);
    }
  }
  return MakeShape(std::string("grid") + std::to_string(rows) + "x" +
                       std::to_string(cols),
                   rows * cols, std::move(edges));
}

Shape Cycle(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return MakeShape(std::string("cycle") + std::to_string(n), n,
                   std::move(edges));
}

Shape Wheel(int spokes) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i <= spokes; ++i) {
    edges.emplace_back(0, i);
    edges.emplace_back(i, i % spokes + 1);
  }
  return MakeShape(std::string("wheel") + std::to_string(spokes), spokes + 1,
                   std::move(edges));
}

Shape Clique(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return MakeShape(std::string("K") + std::to_string(n), n, std::move(edges));
}

// SELECT DISTINCT of variable 0 over the shape, with the atoms listed in a
// random order and the join predicates shuffled: the same hypergraph up to
// a renumbering of its vertices and edges.
std::string RelabelledSql(const Shape& shape, htqo::Rng* rng) {
  const std::size_t m = shape.edges.size();
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, rng);
  std::vector<std::string> from;
  std::vector<std::vector<std::string>> occurrences(shape.num_vars);
  for (std::size_t pos = 0; pos < m; ++pos) {
    const std::size_t e = order[pos];
    const std::string alias = std::string("t") + std::to_string(pos);
    from.push_back(RelationName(shape.edge_relation[e]) + " " + alias);
    occurrences[shape.edges[e].first].push_back(alias + ".a");
    occurrences[shape.edges[e].second].push_back(alias + ".b");
  }
  std::vector<std::string> where;
  for (const auto& occ : occurrences) {
    for (std::size_t i = 1; i < occ.size(); ++i) {
      where.push_back(occ[i - 1] + " = " + occ[i]);
    }
  }
  Shuffle(&where, rng);
  return "SELECT DISTINCT " + occurrences[0].front() + " FROM " +
         htqo::Join(from, ", ") + " WHERE " + htqo::Join(where, " AND ");
}

class PlanChurnWorkload : public Workload {
 public:
  explicit PlanChurnWorkload(uint64_t seed) : seed_(seed), rng_(seed) {
    options_.mode = htqo::OptimizerMode::kQhdHybrid;
    options_.num_threads = 1;
    options_.use_plan_cache = true;
    shapes_ = {Grid(3, 3), Grid(3, 4), Grid(2, 6), Cycle(12),
               Wheel(6),   Wheel(8),   Clique(5), Clique(6)};
    // Shape i labels its atoms alternately with relations g(i mod 4) and
    // g(i+1 mod 4), so each write makes half of the shapes' plans stale.
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      for (std::size_t e = 0; e < shapes_[i].edges.size(); ++e) {
        shapes_[i].edge_relation.push_back(
            static_cast<int>((i + e % 2) % kRelations));
      }
    }
  }

  SetupTimes Setup() override {
    SetupTimes times;
    optimizer_.reset();
    stats_.reset();
    db_.reset();
    htqo::DecompCache::Global().Clear();
    data_rng_ = htqo::Rng(seed_);
    writes_ = 0;
    const auto start = Clock::now();
    db_ = std::make_unique<htqo::Catalog>();
    for (std::size_t k = 0; k < kRelations; ++k) {
      db_->Put(RelationName(k), NewRelation());
    }
    times.load_s = SecondsSince(start);
    const auto analyze_start = Clock::now();
    stats_ = std::make_unique<htqo::StatisticsRegistry>();
    stats_->AnalyzeAll(*db_);
    times.analyze_s = SecondsSince(analyze_start);
    optimizer_ =
        std::make_unique<htqo::HybridOptimizer>(db_.get(), stats_.get());
    std::vector<std::string> sql;
    htqo::Rng warm_rng(seed_ ^ 0x5eedull);
    for (const Shape& s : shapes_) sql.push_back(RelabelledSql(s, &warm_rng));
    PassStats warm;
    std::vector<htqo::Result<htqo::QueryRun>> runs;
    for (const std::string& q : sql) {
      runs.push_back(TimedQuery(*optimizer_, q, options_, false, &warm));
    }
    times.total_s = SecondsSince(start);
    RecomputeReferences();
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      CheckAnswer(i, runs[i], runs[i].ok() ? runs[i]->plan_cache : "", &warm);
    }
    times.warmup_wrong = warm.wrong + warm.failed;
    return times;
  }

  void Run(double seconds, bool traced, PassStats* stats) override {
    RunRounds(seconds, stats, [&] {
      std::size_t query = 0;
      for (std::size_t op = 0; op < kOpsPerRound; ++op) {
        if (op % kWriteEvery == kWriteEvery - 1) {
          Write(stats);
          continue;
        }
        const std::size_t shape = query++ % shapes_.size();
        const std::string sql = RelabelledSql(shapes_[shape], &rng_);
        auto run = TimedQuery(*optimizer_, sql, options_, traced, stats);
        CheckAnswer(shape, run, run.ok() ? run->plan_cache : "", stats);
      }
    });
  }

 private:
  // A random 3-regular relation over 0..9: the union of three disjoint
  // random permutations, in random row order. Every relation the workload
  // makes has the same statistics (30 rows, each value 3 times per
  // column), so the seed moves the data and the answers but not the cost
  // model the search sees.
  htqo::Relation NewRelation() {
    std::vector<std::vector<char>> taken(kDomain, std::vector<char>(kDomain));
    std::vector<std::pair<int64_t, int64_t>> rows;
    while (rows.size() < static_cast<std::size_t>(kDegree * kDomain)) {
      std::vector<int64_t> perm(kDomain);
      std::iota(perm.begin(), perm.end(), 0);
      Shuffle(&perm, &data_rng_);
      bool disjoint = true;
      for (int64_t a = 0; a < kDomain; ++a) disjoint &= !taken[a][perm[a]];
      if (!disjoint) continue;
      for (int64_t a = 0; a < kDomain; ++a) {
        taken[a][perm[a]] = 1;
        rows.emplace_back(a, perm[a]);
      }
    }
    Shuffle(&rows, &data_rng_);
    htqo::Relation rel{htqo::Schema({{"a", htqo::ValueType::kInt64},
                                     {"b", htqo::ValueType::kInt64}})};
    for (const auto& [a, b] : rows) {
      rel.AddRow({htqo::Value::Int64(a), htqo::Value::Int64(b)});
    }
    return rel;
  }

  // Replaces one relation and puts fresh statistics for it (bumping its
  // stats epoch), then recomputes the reference answers.
  void Write(PassStats* stats) {
    const std::string name = RelationName(writes_++ % kRelations);
    htqo::Relation fresh = NewRelation();
    ++stats->attempted;
    const auto start = Clock::now();
    db_->Put(name, std::move(fresh));
    const auto stats_start = Clock::now();
    stats_->Put(name, htqo::CollectStats(*db_->Find(name)));
    const double stats_s = SecondsSince(stats_start);
    stats->busy_s += SecondsSince(start);
    stats->write_stats_s += stats_s;
    ++stats->writes;
    RecomputeReferences();
  }

  void RecomputeReferences() {
    std::vector<const htqo::Relation*> rels;
    for (std::size_t k = 0; k < kRelations; ++k) {
      rels.push_back(db_->Find(RelationName(k)));
    }
    refs_.clear();
    for (const Shape& s : shapes_) refs_.push_back(ReferenceShape(s, rels));
  }

  // Every relabelling must give the reference answer, whatever the plan
  // cache outcome it ran under.
  void CheckAnswer(std::size_t shape,
                   const htqo::Result<htqo::QueryRun>& run,
                   const std::string& outcome, PassStats* stats) {
    if (!run.ok()) return;
    if (!SameInts(run->output, refs_[shape])) {
      ReportWrong(stats, "shape " + shapes_[shape].name + " (plan cache " +
                             outcome + ") differs from reference");
    }
  }

  uint64_t seed_;
  htqo::Rng rng_;  // relabellings
  htqo::Rng data_rng_{0};
  std::size_t writes_ = 0;
  htqo::RunOptions options_;
  std::vector<Shape> shapes_;
  std::vector<std::vector<int64_t>> refs_;
  std::unique_ptr<htqo::Catalog> db_;
  std::unique_ptr<htqo::StatisticsRegistry> stats_;
  std::unique_ptr<htqo::HybridOptimizer> optimizer_;
};

}  // namespace

std::unique_ptr<Workload> MakePlanChurnWorkload(uint64_t seed) {
  return std::make_unique<PlanChurnWorkload>(seed);
}

}  // namespace e2e
