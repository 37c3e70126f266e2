// The traced-run extractor: folds a query's span tree into per-layer time.
//
// Each instant of a root span's wall time is credited to the spans that are
// running at that instant and have no running child span ("frontier"
// spans); when several run at once (pool lanes, parallel decomposition
// nodes) the instant is split evenly among them. A layer's time is the sum
// of what its spans were credited, so the layers of one query add up to
// its wall time exactly. Pool-lane `chunk` spans and `wave` barriers are
// credited to the layer of their nearest enclosing span (the operator, or
// the evaluator), and spans no layer claims — `query`, `execute`,
// `subquery` — land in api.unattributed_ms so that time stays visible.

#ifndef HTQO_E2EBENCH_LAYERS_H_
#define HTQO_E2EBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace e2e {

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 or an id not in the set: a root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

std::vector<SpanRec> SpansOf(const htqo::Tracer& tracer);

// Parses the Chrome trace_event JSON written by Tracer::WriteChromeTrace
// (one process per file). Events that are not complete spans are skipped.
std::vector<SpanRec> SpansOfChromeJson(const std::string& json);

void FoldSpans(const std::vector<SpanRec>& spans, LayerLedger* ledger);

// Every layer metric FoldSpans can credit, in report order.
const std::vector<std::string>& SpanLayerNames();

}  // namespace e2e

#endif  // HTQO_E2EBENCH_LAYERS_H_
