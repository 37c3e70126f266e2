// Derived-table (nested query) support: the paper's "dealing with any kind
// of nested queries" future-work item.

#include <gtest/gtest.h>

#include "api/hybrid_optimizer.h"
#include "sql/parser.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace {

// Every value's type tag and payload, row by row: equal strings mean
// byte-identical relations.
std::string EncodeRows(const Relation& rel) {
  std::string out;
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      EncodeValue(rel.At(r, c), &out);
    }
  }
  return out;
}

class NestedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{80, 50, 4, 31}, &catalog_);
    PopulateTpch(TpchConfig{0.002, 7}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(NestedQueryTest, ParserAcceptsDerivedTables) {
  auto stmt = ParseSelect(
      "SELECT d.x FROM (SELECT r1.a AS x FROM r1) d WHERE d.x > 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_TRUE(stmt->from[0].IsDerived());
  EXPECT_EQ(stmt->from[0].alias, "d");
  EXPECT_TRUE(stmt->HasDerivedTables());
  // Round-trips through ToString.
  auto again = ParseSelect(stmt->ToString());
  ASSERT_TRUE(again.ok()) << stmt->ToString();
  EXPECT_TRUE(again->from[0].IsDerived());
}

TEST_F(NestedQueryTest, DerivedTableRequiresAlias) {
  EXPECT_FALSE(ParseSelect("SELECT x FROM (SELECT r1.a AS x FROM r1)").ok());
}

TEST_F(NestedQueryTest, AsKeywordAllowedForAlias) {
  auto stmt =
      ParseSelect("SELECT d.x FROM (SELECT r1.a AS x FROM r1) AS d");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  EXPECT_EQ(stmt->from[0].alias, "d");
}

TEST_F(NestedQueryTest, SimpleDerivedTableMatchesFlat) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  auto nested = optimizer.Run(
      "SELECT DISTINCT d.x FROM (SELECT r1.a AS x, r1.b AS y FROM r1) d, r2 "
      "WHERE d.y = r2.a",
      options);
  ASSERT_TRUE(nested.ok()) << nested.status().message();
  auto flat = optimizer.Run(
      "SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.b = r2.a", options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(nested->output.SameRowsAs(flat->output));
  EXPECT_NE(nested->plan_description.find("materialized subquery"),
            std::string::npos);
}

TEST_F(NestedQueryTest, BagSemanticsSurviveMaterialization) {
  // The inner subquery is not DISTINCT; the outer sum must see duplicate
  // (a, b) rows from r1.
  Catalog catalog;
  Relation r{Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}})};
  r.AddRow({Value::Int64(1), Value::Int64(10)});
  r.AddRow({Value::Int64(1), Value::Int64(10)});  // duplicate
  r.AddRow({Value::Int64(2), Value::Int64(5)});
  catalog.Put("r", std::move(r));
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);

  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  auto run = optimizer.Run(
      "SELECT d.a AS a, sum(d.b) AS total "
      "FROM (SELECT r.a AS a, r.b AS b FROM r) d GROUP BY d.a ORDER BY a",
      options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_EQ(run->output.NumRows(), 2u);
  EXPECT_EQ(run->output.At(0, 1), Value::Int64(20));  // both duplicates
  EXPECT_EQ(run->output.At(1, 1), Value::Int64(5));
}

TEST_F(NestedQueryTest, TwoLevelNesting) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  auto run = optimizer.Run(
      "SELECT DISTINCT outer2.x FROM "
      "(SELECT inner1.x AS x FROM "
      "  (SELECT r1.a AS x FROM r1 WHERE r1.a <= 20) inner1) outer2",
      options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  auto flat = optimizer.Run(
      "SELECT DISTINCT r1.a FROM r1 WHERE r1.a <= 20", options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(run->output.SameRowsAs(flat->output));
}

TEST_F(NestedQueryTest, AggregateSubqueryFeedsOuterJoin) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  // Inner: per-a count over r1. Outer: join with r2 on the group key.
  auto run = optimizer.Run(
      "SELECT DISTINCT g.k FROM "
      "(SELECT r1.a AS k, count(*) AS n FROM r1 GROUP BY r1.a) g, r2 "
      "WHERE g.k = r2.a",
      options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  auto flat = optimizer.Run(
      "SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.a = r2.a", options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(run->output.SameRowsAs(flat->output));
}

TEST_F(NestedQueryTest, NestedQ8MatchesFlattenedQ8) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (OptimizerMode mode :
       {OptimizerMode::kDpStatistics, OptimizerMode::kQhdHybrid}) {
    RunOptions options;
    options.mode = mode;
    auto nested = optimizer.Run(TpchQ8Nested(), options);
    ASSERT_TRUE(nested.ok()) << nested.status().message();
    auto flat = optimizer.Run(TpchQ8(), options);
    ASSERT_TRUE(flat.ok()) << flat.status().message();
    EXPECT_TRUE(nested->output.SameRowsAs(flat->output))
        << OptimizerModeName(mode);
  }
}

TEST_F(NestedQueryTest, RepeatedNestedRunHitsPlanCacheUntilBaseStatsChange) {
  // Re-materializing an unchanged derived table must keep the outer plan
  // cached; a statistics change on a relation the subquery reads must
  // still invalidate it. The answer never changes.
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.use_plan_cache = true;
  const std::string sql = TpchQ8Nested();
  auto first = optimizer.Run(sql, options);
  ASSERT_TRUE(first.ok()) << first.status().message();
  const std::string expected = EncodeRows(first->output);

  auto second = optimizer.Run(sql, options);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second->plan_cache, "hit");
  EXPECT_EQ(EncodeRows(second->output), expected);

  registry_.Put("lineitem", CollectStats(*catalog_.Find("lineitem")));
  auto third = optimizer.Run(sql, options);
  ASSERT_TRUE(third.ok()) << third.status().message();
  EXPECT_NE(third->plan_cache, "hit");
  EXPECT_NE(third->plan_cache, "shared-hit");
  EXPECT_EQ(EncodeRows(third->output), expected);

  auto fourth = optimizer.Run(sql, options);
  ASSERT_TRUE(fourth.ok()) << fourth.status().message();
  EXPECT_EQ(fourth->plan_cache, "hit");
  EXPECT_EQ(EncodeRows(fourth->output), expected);
}

TEST_F(NestedQueryTest, ResolveRejectsDerivedTablesDirectly) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  auto rq = optimizer.Resolve(
      "SELECT d.x FROM (SELECT r1.a AS x FROM r1) d");
  ASSERT_FALSE(rq.ok());
  EXPECT_EQ(rq.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htqo
