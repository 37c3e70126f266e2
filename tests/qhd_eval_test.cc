#include "opt/qhd_planner.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cq/hypergraph_builder.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "obs/trace.h"
#include "opt/naive_optimizer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "util/strings.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

class QhdEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{120, 40, 10, 11}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  ResolvedQuery Resolve(const std::string& sql,
                        TidMode tid = TidMode::kNone) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().message();
    auto rq =
        IsolateConjunctiveQuery(*stmt, catalog_, IsolatorOptions{tid});
    EXPECT_TRUE(rq.ok()) << rq.status().message();
    return std::move(rq.value());
  }

  // Reference: naive hash-join of all atoms, projected to out vars.
  Relation ReferenceAnswer(const ResolvedQuery& rq) {
    ExecContext ctx;
    auto plan = NaiveFromOrderPlan(rq.cq.atoms.size(), JoinAlgo::kHash);
    auto joined = ExecuteJoinPlan(*plan, rq, catalog_, &ctx);
    EXPECT_TRUE(joined.ok()) << joined.status().message();
    auto answer = ProjectToOutputVars(rq, *joined, &ctx);
    EXPECT_TRUE(answer.ok());
    return std::move(answer.value());
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(QhdEvalTest, LineQueryMatchesReference) {
  for (std::size_t n : {2u, 4u, 6u, 9u}) {
    ResolvedQuery rq = Resolve(LineQuerySql(n));
    ExecContext ctx;
    auto eval = EvaluateQhd(rq, catalog_, &registry_, QhdPlanOptions{}, &ctx);
    ASSERT_TRUE(eval.ok()) << eval.status().message();
    EXPECT_TRUE(eval->answer.SameRowsAs(ReferenceAnswer(rq))) << n;
  }
}

TEST_F(QhdEvalTest, ChainQueryMatchesReference) {
  for (std::size_t n : {3u, 5u, 8u, 10u}) {
    ResolvedQuery rq = Resolve(ChainQuerySql(n));
    ExecContext ctx;
    auto eval = EvaluateQhd(rq, catalog_, &registry_, QhdPlanOptions{}, &ctx);
    ASSERT_TRUE(eval.ok()) << eval.status().message();
    EXPECT_TRUE(eval->answer.SameRowsAs(ReferenceAnswer(rq))) << n;
  }
}

TEST_F(QhdEvalTest, StructuralModeMatchesReference) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  QhdPlanOptions opts;
  opts.use_statistics = false;
  ExecContext ctx;
  auto eval = EvaluateQhd(rq, catalog_, nullptr, opts, &ctx);
  ASSERT_TRUE(eval.ok()) << eval.status().message();
  EXPECT_TRUE(eval->answer.SameRowsAs(ReferenceAnswer(rq)));
}

TEST_F(QhdEvalTest, NoOptimizeMatchesOptimize) {
  ResolvedQuery rq = Resolve(ChainQuerySql(7));
  QhdPlanOptions with, without;
  without.decomp.run_optimize = false;
  ExecContext c1, c2;
  auto a = EvaluateQhd(rq, catalog_, &registry_, with, &c1);
  auto b = EvaluateQhd(rq, catalog_, &registry_, without, &c2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->answer.SameRowsAs(b->answer));
}

TEST_F(QhdEvalTest, OptimizeNeverIncreasesPeakRows) {
  ResolvedQuery rq = Resolve(ChainQuerySql(8));
  QhdPlanOptions with, without;
  without.decomp.run_optimize = false;
  ExecContext c1, c2;
  auto a = EvaluateQhd(rq, catalog_, &registry_, with, &c1);
  auto b = EvaluateQhd(rq, catalog_, &registry_, without, &c2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(c1.work_charged, c2.work_charged * 2);  // sanity, not strict
}

TEST_F(QhdEvalTest, PeakIntermediateIsPolynomiallyBounded) {
  // The whole point of good q-HDs: projected node relations are bounded by
  // the join of <= width base relations, and in-flight (pre-projection) join
  // bags stay within a small constant of that. For width-<=3 chains over
  // 120-row relations a very loose polynomial bound is 120^2 * 8; the
  // exponential naive evaluation at n=10 would exceed it by orders of
  // magnitude.
  ResolvedQuery rq = Resolve(ChainQuerySql(10));
  ExecContext ctx;
  auto eval = EvaluateQhd(rq, catalog_, &registry_, QhdPlanOptions{}, &ctx);
  ASSERT_TRUE(eval.ok());
  EXPECT_LE(ctx.peak_rows, 120u * 120u * 8u);
}

// Every node result carries exactly its separator chi(p) ∩ chi(parent), and
// the root exactly out(Q). The qhd.node span's "keep" attribute renders the
// schema of the relation the node produced. The last query has a component
// disconnected from out(Q), whose message to its parent has no columns.
TEST_F(QhdEvalTest, NodeResultsCarryExactlyTheirSeparator) {
  for (const std::string& sql :
       {ChainQuerySql(5), ChainQuerySql(8), LineQuerySql(6),
        std::string("SELECT DISTINCT r1.a FROM r1, r2, r3, r4 WHERE "
                    "r1.b = r2.a AND r3.b = r4.a AND r4.b = r3.a")}) {
    ResolvedQuery rq = Resolve(sql);
    Tracer tracer;
    ExecContext ctx;
    ctx.tracer = &tracer;
    auto eval = EvaluateQhd(rq, catalog_, &registry_, QhdPlanOptions{}, &ctx);
    ASSERT_TRUE(eval.ok()) << eval.status().message();
    EXPECT_TRUE(eval->answer.SameRowsAs(ReferenceAnswer(rq))) << sql;
    const Hypertree& hd = eval->decomposition.hd;
    const Bitset out = OutputVarsBitset(rq.cq);
    const std::vector<Bitset> keep = SeparatorKeepSets(hd, out);
    EXPECT_EQ(keep[hd.root()], out) << sql;

    std::map<std::size_t, std::string> seen;
    for (const Span& span : tracer.Snapshot()) {
      if (span.name != "qhd.node") continue;
      std::size_t node = hd.NumNodes();
      std::string attr;
      for (const SpanAttr& a : span.attrs) {
        if (a.key == "node") node = std::stoull(a.value);
        if (a.key == "keep") attr = a.value;
      }
      ASSERT_LT(node, hd.NumNodes());
      seen[node] = attr;
    }
    if (kTracingCompiledIn) {
      ASSERT_EQ(seen.size(), hd.NumNodes()) << sql;
    }
    for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
      const std::size_t parent = hd.node(p).parent;
      Bitset expected = hd.node(p).chi;
      expected &= parent == HypertreeNode::kNoParent ? out : hd.node(parent).chi;
      EXPECT_EQ(keep[p], expected) << sql << " node " << p;
      std::vector<std::string> names;
      for (std::size_t v : expected.ToVector()) {
        names.push_back(rq.cq.vars[v].name);
      }
      if (kTracingCompiledIn) {
        EXPECT_EQ(seen[p], "{" + Join(names, ",") + "}")
            << sql << " node " << p;
      }
    }
  }
}

// The 12-chain of the cyclic benchmark: 500-row relations at selectivity 30.
// Projecting every node onto all of chi(p) peaked at 363043 rows here (the
// width-4 nodes handed all four variables upward); projecting onto the
// separator peaks at 65975.
TEST(QhdEvalSeparatorTest, TwelveChainMatchesReferenceWithinSeparatorPeak) {
  constexpr std::size_t kAtoms = 12;
  Catalog catalog;
  PopulateSyntheticCatalog(SyntheticConfig{500, 30, kAtoms, 7}, &catalog);
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  auto stmt = ParseSelect(ChainQuerySql(kAtoms));
  ASSERT_TRUE(stmt.ok());
  auto rq = IsolateConjunctiveQuery(*stmt, catalog,
                                    IsolatorOptions{TidMode::kNone});
  ASSERT_TRUE(rq.ok());

  // Reference: x is an answer when some walk r1 -> r2 -> ... -> r12 that
  // starts at a = x ends at b = x.
  std::vector<std::multimap<int64_t, int64_t>> edges(kAtoms);
  for (std::size_t i = 0; i < kAtoms; ++i) {
    const Relation* r = catalog.Find("r" + std::to_string(i + 1));
    ASSERT_NE(r, nullptr);
    for (std::size_t row = 0; row < r->NumRows(); ++row) {
      edges[i].emplace(r->At(row, 0).AsInt64(), r->At(row, 1).AsInt64());
    }
  }
  std::set<int64_t> starts;
  for (const auto& edge : edges[0]) starts.insert(edge.first);
  std::set<int64_t> answers;
  for (int64_t start : starts) {
    std::set<int64_t> at{start};
    for (std::size_t i = 0; i < kAtoms && !at.empty(); ++i) {
      std::set<int64_t> next;
      for (int64_t v : at) {
        auto [lo, hi] = edges[i].equal_range(v);
        for (auto it = lo; it != hi; ++it) next.insert(it->second);
      }
      at = std::move(next);
    }
    if (at.count(start) > 0) answers.insert(start);
  }
  ASSERT_FALSE(answers.empty());
  Relation reference{Schema({Column{"r1.a", ValueType::kInt64}})};
  for (int64_t x : answers) reference.AddRow({Value::Int64(x)});

  ExecContext ctx;
  auto eval = EvaluateQhd(*rq, catalog, &registry, QhdPlanOptions{}, &ctx);
  ASSERT_TRUE(eval.ok()) << eval.status().message();
  EXPECT_TRUE(eval->answer.SameRowsAs(reference));
  EXPECT_LT(ctx.peak_rows.load(), 100000u);
}

TEST_F(QhdEvalTest, WidthBoundFailureFallsThroughAsNotFound) {
  ResolvedQuery rq = Resolve(ChainQuerySql(5));
  QhdPlanOptions opts;
  opts.decomp.max_width = 1;  // chains are cyclic: need width 2
  ExecContext ctx;
  auto eval = EvaluateQhd(rq, catalog_, &registry_, opts, &ctx);
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kNotFound);
}

TEST_F(QhdEvalTest, AggregateQueryWithTidsMatchesReference) {
  ResolvedQuery rq = Resolve(
      "SELECT r1.a AS k, count(*) AS n, sum(r2.b) AS s "
      "FROM r1, r2 WHERE r1.b = r2.a GROUP BY r1.a ORDER BY k",
      TidMode::kAggregatesOnly);
  ExecContext ctx;
  auto eval = EvaluateQhd(rq, catalog_, &registry_, QhdPlanOptions{}, &ctx);
  ASSERT_TRUE(eval.ok()) << eval.status().message();
  auto qhd_out = EvaluateSelectOutput(rq, eval->answer, &ctx);
  ASSERT_TRUE(qhd_out.ok());

  Relation ref = ReferenceAnswer(rq);
  ExecContext ctx2;
  auto ref_out = EvaluateSelectOutput(rq, ref, &ctx2);
  ASSERT_TRUE(ref_out.ok());
  EXPECT_TRUE(qhd_out->SameRowsAs(*ref_out));
}

TEST_F(QhdEvalTest, AlwaysFalseQueryYieldsEmptyAnswer) {
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT r1.a FROM r1 WHERE 1 = 2 AND r1.a = r1.a");
  Hypergraph h = BuildHypergraph(rq.cq);
  Hypertree hd;
  Bitset chi(rq.cq.vars.size());
  for (VarId v : rq.cq.output_vars) chi.Set(v);
  Bitset lambda(1);
  lambda.Set(0);
  hd.AddNode(chi, lambda);
  ExecContext ctx;
  auto answer = EvaluateDecomposition(rq, catalog_, h, hd, &ctx);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->NumRows(), 0u);
}

// Guard-rich decompositions (first-feasible det-k-decomp) carry bounding
// copies that Procedure Optimize prunes; the evaluator must produce the
// same answer for the raw tree, the pruned tree, and the min-cost tree.
class FirstFeasiblePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(FirstFeasiblePropertyTest, GuardRichTreesEvaluateCorrectly) {
  auto [n, chain] = GetParam();
  Catalog catalog;
  PopulateSyntheticCatalog(SyntheticConfig{90, 50, 10, 77}, &catalog);
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  auto stmt = ParseSelect(chain ? ChainQuerySql(n) : LineQuerySql(n));
  ASSERT_TRUE(stmt.ok());
  auto rq = IsolateConjunctiveQuery(*stmt, catalog,
                                    IsolatorOptions{TidMode::kNone});
  ASSERT_TRUE(rq.ok());

  // Reference: naive hash join.
  ExecContext ref_ctx;
  auto plan = NaiveFromOrderPlan(rq->cq.atoms.size(), JoinAlgo::kHash);
  auto joined = ExecuteJoinPlan(*plan, *rq, catalog, &ref_ctx);
  ASSERT_TRUE(joined.ok());
  auto reference = ProjectToOutputVars(*rq, *joined, &ref_ctx);
  ASSERT_TRUE(reference.ok());

  Hypergraph h = BuildHypergraph(rq->cq);
  Bitset out = OutputVarsBitset(rq->cq);
  StructuralCostModel model;
  for (std::size_t k : {2u, 3u}) {
    for (bool optimize : {false, true}) {
      QhdOptions options;
      options.max_width = k;
      options.run_optimize = optimize;
      options.first_feasible = true;
      auto qhd = QHypertreeDecomp(h, out, model, options);
      if (!qhd.ok()) continue;  // width too small for this topology
      ExecContext ctx;
      auto answer = EvaluateDecomposition(*rq, catalog, h, qhd->hd, &ctx);
      ASSERT_TRUE(answer.ok()) << answer.status().message();
      EXPECT_TRUE(answer->SameRowsAs(*reference))
          << "n=" << n << " chain=" << chain << " k=" << k
          << " optimize=" << optimize << "\n"
          << qhd->hd.ToString(h);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FirstFeasiblePropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10),
                       ::testing::Bool()));

TEST_F(QhdEvalTest, RowBudgetPropagates) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  ExecContext ctx;
  ctx.row_budget = 10;
  auto eval = EvaluateQhd(rq, catalog_, &registry_, QhdPlanOptions{}, &ctx);
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace htqo
