// The q-hypertree evaluator of Section 4 and its planner.
//
// Given a q-hypertree decomposition of CQ(Q):
//   P':   at every node, join the relations of lambda(p) (smallest-first,
//         the quantitative optimization inside each vertex of the tight
//         PostgreSQL coupling);
//   P'':  bottom-up along the tree, join every node with its children —
//         children recorded by Procedure Optimize first — projecting after
//         each join onto the separator chi(p) ∩ chi(parent) plus the columns
//         the node's pending joins still need; projections deduplicate (CQ
//         set semantics), which is what yields the polynomial bound;
//   P''': the root is projected onto chi(root) ∩ out(Q) = out(Q) like any
//         other node, so only the column order of out(Q) is left to apply.

#ifndef HTQO_OPT_QHD_PLANNER_H_
#define HTQO_OPT_QHD_PLANNER_H_

#include "cq/isolator.h"
#include "decomp/qhd.h"
#include "exec/operators.h"
#include "stats/statistics.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace htqo {

struct QhdPlanOptions {
  QhdOptions decomp;
  // true: cost-k-decomp minimizes the statistics cost model (hybrid mode);
  // false: purely structural cost model (the stand-alone regime when no
  // statistics are available).
  bool use_statistics = true;
};

struct QhdEvaluation {
  QhdResult decomposition;
  Relation answer;  // CQ answer: one column per out(Q) variable
};

// The columns each node of `hd` hands its parent, indexed by node:
// chi(p) ∩ chi(parent(p)) for a non-root node, chi(root) ∩ out_vars at the
// root. The evaluator projects every node result onto exactly this set.
std::vector<Bitset> SeparatorKeepSets(const Hypertree& hd,
                                      const Bitset& out_vars);

// Evaluates the CQ of `rq` against `catalog` using the decomposition `hd`
// (steps P', P'', P''' only — no decomposition search). Exposed for the
// Fig. 10 ablation and tests.
Result<Relation> EvaluateDecomposition(const ResolvedQuery& rq,
                                       const Catalog& catalog,
                                       const Hypergraph& h,
                                       const Hypertree& hd, ExecContext* ctx);

// Full q-HD pipeline: build H(Q), run Algorithm q-HypertreeDecomp (Fig. 4)
// with the statistics or structural cost model, then evaluate.
// NotFound = "Failure" (no width-<=k decomposition rooted at out(Q)).
Result<QhdEvaluation> EvaluateQhd(const ResolvedQuery& rq,
                                  const Catalog& catalog,
                                  const StatisticsRegistry* stats,
                                  const QhdPlanOptions& options,
                                  ExecContext* ctx);

}  // namespace htqo

#endif  // HTQO_OPT_QHD_PLANNER_H_
