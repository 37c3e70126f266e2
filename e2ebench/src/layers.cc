#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

namespace e2e {

namespace {

constexpr const char kUnattributed[] = "api.unattributed_ms";

// Layer of a span name; nullptr = inherit from the enclosing span.
const char* LayerOf(std::string_view name) {
  static const std::unordered_map<std::string_view, const char*> kTable = {
      {"parse", "sql.parse_ms"},
      {"isolate", "cq.isolate_ms"},
      {"stats.lookup", "stats.lookup_ms"},
      {"cache.lookup", "cache.lookup_ms"},
      {"cache.rebind", "cache.rebind_ms"},
      {"optimize", "decomp.optimize_ms"},
      {"qhd.node", "opt.qhd_node_ms"},
      {"yannakakis.pass", "opt.yannakakis_ms"},
      {"op.scan", "exec.scan_ms"},
      {"op.hash_join", "exec.join_ms"},
      {"op.nl_join", "exec.join_ms"},
      {"op.merge_join", "exec.join_ms"},
      {"op.semijoin", "exec.semijoin_ms"},
      {"op.project", "exec.project_ms"},
      {"op.distinct", "exec.distinct_ms"},
      {"select.output", "exec.output_ms"},
  };
  if (name == "chunk" || name == "wave") return nullptr;
  if (name.starts_with("search.")) return "decomp.search_ms";
  auto it = kTable.find(name);
  return it == kTable.end() ? kUnattributed : it->second;
}

// Parses the string value following `key` (e.g. "\"name\":\"") at or after
// *pos; advances *pos past it. Empty on a miss.
std::string_view StringField(std::string_view json, std::string_view key,
                             std::size_t* pos) {
  std::size_t at = json.find(key, *pos);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + key.size();
  std::size_t end = begin;
  while (end < json.size() && json[end] != '"') {
    end += json[end] == '\\' ? 2 : 1;  // skip escaped characters
  }
  *pos = std::min(end, json.size());
  return json.substr(begin, end - begin);
}

double NumberField(std::string_view json, std::string_view key,
                   std::size_t* pos) {
  std::size_t at = json.find(key, *pos);
  if (at == std::string_view::npos) return 0;
  std::size_t begin = at + key.size();
  std::size_t end = json.find_first_of(",}", begin);
  *pos = end == std::string_view::npos ? json.size() : end;
  return std::strtod(std::string(json.substr(begin, end - begin)).c_str(),
                     nullptr);
}

// Local id of a wire span id "<pid>:<id>" from process `pid`; 0 otherwise.
uint64_t LocalId(std::string_view wire, std::string_view pid) {
  std::size_t colon = wire.find(':');
  if (colon == std::string_view::npos || wire.substr(0, colon) != pid) {
    return 0;
  }
  return std::strtoull(std::string(wire.substr(colon + 1)).c_str(), nullptr,
                       10);
}

}  // namespace

const std::vector<std::string>& SpanLayerNames() {
  static const std::vector<std::string> kNames = {
      "sql.parse_ms",      "cq.isolate_ms",     "stats.lookup_ms",
      "cache.lookup_ms",   "cache.rebind_ms",   "decomp.search_ms",
      "decomp.optimize_ms", "opt.qhd_node_ms",  "opt.yannakakis_ms",
      "exec.scan_ms",      "exec.join_ms",      "exec.semijoin_ms",
      "exec.project_ms",   "exec.distinct_ms",  "exec.output_ms",
      kUnattributed};
  return kNames;
}

std::vector<SpanRec> SpansOf(const htqo::Tracer& tracer) {
  std::vector<SpanRec> out;
  for (const htqo::Span& s : tracer.Snapshot()) {
    if (s.duration_ns < 0) continue;  // still open: not a finished layer
    out.push_back({s.id, s.parent, s.name, s.start_ns,
                   s.start_ns + s.duration_ns});
  }
  return out;
}

std::vector<SpanRec> SpansOfChromeJson(const std::string& text) {
  std::string_view json(text);
  std::vector<SpanRec> out;
  constexpr std::string_view kEvent = "{\"name\":\"";
  std::size_t pos = 0;
  while ((pos = json.find(kEvent, pos)) != std::string_view::npos) {
    std::size_t cursor = pos;
    SpanRec rec;
    rec.name = std::string(StringField(json, kEvent, &cursor));
    const std::size_t next = json.find(kEvent, cursor);
    pos = cursor;
    if (StringField(json, "\"ph\":\"", &cursor) != "X" || cursor > next) {
      continue;
    }
    std::size_t c = cursor;
    const double pid_num = NumberField(json, "\"pid\":", &c);
    const double ts_us = NumberField(json, "\"ts\":", &c);
    const double dur_us = NumberField(json, "\"dur\":", &c);
    const std::string pid_text = std::to_string(static_cast<uint64_t>(pid_num));
    rec.id = LocalId(StringField(json, "\"span_id\":\"", &c), pid_text);
    rec.parent = LocalId(StringField(json, "\"parent_id\":\"", &c), pid_text);
    rec.start_ns = static_cast<int64_t>(ts_us * 1e3);
    rec.end_ns = rec.start_ns + static_cast<int64_t>(dur_us * 1e3);
    if (rec.id != 0) out.push_back(std::move(rec));
  }
  return out;
}

void FoldSpans(const std::vector<SpanRec>& spans, LayerLedger* ledger) {
  const std::size_t n = spans.size();
  std::unordered_map<uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index.emplace(spans[i].id, i);
  std::vector<long> parent(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) {
      parent[i] = static_cast<long>(it->second);
    }
  }
  std::vector<const char*> layer(n, kUnattributed);
  for (std::size_t i = 0; i < n; ++i) {
    const char* own = LayerOf(spans[i].name);
    if (own == nullptr) {
      own = kUnattributed;
      for (long p = parent[i]; p >= 0; p = parent[p]) {
        if (const char* l = LayerOf(spans[p].name); l != nullptr) {
          own = l;
          break;
        }
      }
      if (own == kUnattributed && spans[i].name == "wave") {
        own = "opt.qhd_node_ms";  // the q-HD evaluator's barrier waves
      }
    }
    layer[i] = own;
    const double dur_ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    if (spans[i].name == "chunk") ledger->lane_ms += dur_ms;
    if (spans[i].name == "execute") ledger->execute_ms += dur_ms;
  }

  struct Event {
    int64_t t;
    bool start;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back({spans[i].start_ns, true, i});
    events.push_back({spans[i].end_ns, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.start && !b.start;  // zero-length spans open before closing
  });
  std::vector<std::size_t> active;
  std::vector<std::size_t> slot(n, 0);
  std::vector<int> running_children(n, 0);
  std::vector<std::size_t> frontier;
  int64_t last_t = events.empty() ? 0 : events.front().t;
  for (const Event& ev : events) {
    if (ev.t > last_t && !active.empty()) {
      frontier.clear();
      for (std::size_t s : active) {
        if (running_children[s] == 0) frontier.push_back(s);
      }
      const double share = static_cast<double>(ev.t - last_t) / 1e6 /
                           static_cast<double>(frontier.size());
      for (std::size_t s : frontier) ledger->ms[layer[s]] += share;
    }
    last_t = ev.t;
    const long p = parent[ev.span];
    if (ev.start) {
      slot[ev.span] = active.size();
      active.push_back(ev.span);
      if (p >= 0) ++running_children[p];
    } else {
      const std::size_t at = slot[ev.span];
      active[at] = active.back();
      slot[active[at]] = at;
      active.pop_back();
      if (p >= 0) --running_children[p];
    }
  }
}

}  // namespace e2e
