#include "reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace e2e {

using htqo::Catalog;
using htqo::Relation;

namespace {

// Column accessor by name, so the references depend only on the schema.
struct Col {
  const Relation* rel;
  std::size_t index;
  Col(const Catalog& db, const std::string& table, const std::string& col) {
    rel = db.Find(table);
    HTQO_CHECK(rel != nullptr);
    auto i = rel->schema().IndexOf(col);
    HTQO_CHECK(i.has_value());
    index = *i;
  }
  int64_t Int(std::size_t row) const { return rel->At(row, index).AsInt64(); }
  double Dbl(std::size_t row) const { return rel->At(row, index).AsDouble(); }
  const std::string& Str(std::size_t row) const {
    return rel->At(row, index).AsString();
  }
};

int64_t Days(const std::string& ymd) {
  int64_t days = 0;
  HTQO_CHECK(htqo::ParseDate(ymd, &days));
  return days;
}

// "YYYY-MM-DD" plus one year.
std::string NextYear(const std::string& ymd) {
  return std::to_string(std::stoi(ymd.substr(0, 4)) + 1) + ymd.substr(4);
}

// Nation keys of the nations in `region`, with their names.
std::unordered_map<int64_t, std::string> NationsIn(const Catalog& db,
                                                   const std::string& region) {
  Col r_key(db, "region", "r_regionkey"), r_name(db, "region", "r_name");
  std::unordered_set<int64_t> regions;
  for (std::size_t i = 0; i < r_key.rel->NumRows(); ++i) {
    if (r_name.Str(i) == region) regions.insert(r_key.Int(i));
  }
  Col n_key(db, "nation", "n_nationkey"), n_name(db, "nation", "n_name"),
      n_region(db, "nation", "n_regionkey");
  std::unordered_map<int64_t, std::string> out;
  for (std::size_t i = 0; i < n_key.rel->NumRows(); ++i) {
    if (regions.count(n_region.Int(i)) > 0) out[n_key.Int(i)] = n_name.Str(i);
  }
  return out;
}

std::unordered_map<int64_t, int64_t> KeyToInt(const Catalog& db,
                                              const std::string& table,
                                              const std::string& key,
                                              const std::string& value) {
  Col k(db, table, key), v(db, table, value);
  std::unordered_map<int64_t, int64_t> out;
  for (std::size_t i = 0; i < k.rel->NumRows(); ++i) out[k.Int(i)] = v.Int(i);
  return out;
}

std::vector<std::pair<int64_t, int64_t>> Pairs(const Catalog& db,
                                               std::size_t i) {
  std::string name = "r";
  name += std::to_string(i);
  Col a(db, name, "a"), b(db, name, "b");
  std::vector<std::pair<int64_t, int64_t>> out;
  for (std::size_t r = 0; r < a.rel->NumRows(); ++r) {
    out.emplace_back(a.Int(r), b.Int(r));
  }
  return out;
}

}  // namespace

bool CloseTo(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::vector<std::pair<std::string, double>> ReferenceQ5(
    const Catalog& db, const std::string& region, const std::string& date) {
  const auto nations = NationsIn(db, region);
  const auto supp_nation = KeyToInt(db, "supplier", "s_suppkey", "s_nationkey");
  const auto cust_nation = KeyToInt(db, "customer", "c_custkey", "c_nationkey");
  const int64_t lo = Days(date), hi = Days(NextYear(date));
  Col o_key(db, "orders", "o_orderkey"), o_cust(db, "orders", "o_custkey"),
      o_date(db, "orders", "o_orderdate");
  std::unordered_map<int64_t, int64_t> order_cust;  // orders in the window
  for (std::size_t i = 0; i < o_key.rel->NumRows(); ++i) {
    if (o_date.Int(i) >= lo && o_date.Int(i) < hi) {
      order_cust[o_key.Int(i)] = o_cust.Int(i);
    }
  }
  Col l_order(db, "lineitem", "l_orderkey"),
      l_supp(db, "lineitem", "l_suppkey"),
      l_price(db, "lineitem", "l_extendedprice"),
      l_disc(db, "lineitem", "l_discount");
  std::map<std::string, double> revenue;
  for (std::size_t i = 0; i < l_order.rel->NumRows(); ++i) {
    auto o = order_cust.find(l_order.Int(i));
    if (o == order_cust.end()) continue;
    auto c = cust_nation.find(o->second);
    auto s = supp_nation.find(l_supp.Int(i));
    if (c == cust_nation.end() || s == supp_nation.end()) continue;
    if (c->second != s->second) continue;
    auto n = nations.find(s->second);
    if (n == nations.end()) continue;
    revenue[n->second] += l_price.Dbl(i) * (1 - l_disc.Dbl(i));
  }
  std::vector<std::pair<std::string, double>> out(revenue.begin(),
                                                  revenue.end());
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.second > y.second; });
  return out;
}

std::vector<std::pair<int64_t, double>> ReferenceQ8(const Catalog& db,
                                                    const std::string& region,
                                                    const std::string& type) {
  const auto nations = NationsIn(db, region);
  const auto cust_nation = KeyToInt(db, "customer", "c_custkey", "c_nationkey");
  const auto supp_nation = KeyToInt(db, "supplier", "s_suppkey", "s_nationkey");
  std::unordered_set<int64_t> all_nations;
  {
    Col n_key(db, "nation", "n_nationkey");
    for (std::size_t i = 0; i < n_key.rel->NumRows(); ++i) {
      all_nations.insert(n_key.Int(i));
    }
  }
  std::unordered_set<int64_t> parts;
  {
    Col p_key(db, "part", "p_partkey"), p_type(db, "part", "p_type");
    for (std::size_t i = 0; i < p_key.rel->NumRows(); ++i) {
      if (p_type.Str(i) == type) parts.insert(p_key.Int(i));
    }
  }
  const int64_t lo = Days("1995-01-01"), hi = Days("1996-12-31");
  Col o_key(db, "orders", "o_orderkey"), o_cust(db, "orders", "o_custkey"),
      o_date(db, "orders", "o_orderdate"), o_year(db, "orders", "o_orderyear");
  std::unordered_map<int64_t, int64_t> order_year;  // qualifying orders
  for (std::size_t i = 0; i < o_key.rel->NumRows(); ++i) {
    if (o_date.Int(i) < lo || o_date.Int(i) > hi) continue;
    auto c = cust_nation.find(o_cust.Int(i));
    if (c == cust_nation.end() || nations.count(c->second) == 0) continue;
    order_year[o_key.Int(i)] = o_year.Int(i);
  }
  Col l_order(db, "lineitem", "l_orderkey"),
      l_part(db, "lineitem", "l_partkey"),
      l_supp(db, "lineitem", "l_suppkey"),
      l_price(db, "lineitem", "l_extendedprice"),
      l_disc(db, "lineitem", "l_discount");
  std::map<int64_t, double> volume;
  for (std::size_t i = 0; i < l_order.rel->NumRows(); ++i) {
    if (parts.count(l_part.Int(i)) == 0) continue;
    auto o = order_year.find(l_order.Int(i));
    if (o == order_year.end()) continue;
    auto s = supp_nation.find(l_supp.Int(i));
    if (s == supp_nation.end() || all_nations.count(s->second) == 0) continue;
    volume[o->second] += l_price.Dbl(i) * (1 - l_disc.Dbl(i));
  }
  return {volume.begin(), volume.end()};
}

std::vector<int64_t> ReferenceLine(const Catalog& db, std::size_t n) {
  std::set<int64_t> reach;  // values of r_i.a that reach the end of the line
  for (const auto& [a, b] : Pairs(db, n)) reach.insert(a);
  for (std::size_t i = n - 1; i >= 1; --i) {
    std::set<int64_t> prev;
    for (const auto& [a, b] : Pairs(db, i)) {
      if (reach.count(b) > 0) prev.insert(a);
    }
    reach = std::move(prev);
  }
  return {reach.begin(), reach.end()};
}

std::vector<int64_t> ReferenceChain(const Catalog& db, std::size_t n) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> rel(n + 1);
  for (std::size_t i = 1; i <= n; ++i) rel[i] = Pairs(db, i);
  std::set<int64_t> starts;
  for (const auto& [a, b] : rel[1]) starts.insert(a);
  std::vector<int64_t> out;
  for (int64_t x : starts) {
    std::unordered_set<int64_t> at;
    for (const auto& [a, b] : rel[1]) {
      if (a == x) at.insert(b);
    }
    for (std::size_t i = 2; i <= n && !at.empty(); ++i) {
      std::unordered_set<int64_t> next;
      for (const auto& [a, b] : rel[i]) {
        if (at.count(a) > 0) next.insert(b);
      }
      at = std::move(next);
    }
    if (at.count(x) > 0) out.push_back(x);
  }
  return out;
}

std::vector<int64_t> ReferenceShape(
    const Shape& shape, const std::vector<const Relation*>& relations) {
  // Dense pair tables over the value range of every relation.
  int64_t domain = 1;
  for (const Relation* r : relations) {
    for (std::size_t i = 0; i < r->NumRows(); ++i) {
      domain = std::max({domain, r->At(i, 0).AsInt64() + 1,
                         r->At(i, 1).AsInt64() + 1});
    }
  }
  std::vector<std::vector<char>> has(relations.size(),
                                     std::vector<char>(domain * domain, 0));
  for (std::size_t k = 0; k < relations.size(); ++k) {
    for (std::size_t i = 0; i < relations[k]->NumRows(); ++i) {
      has[k][relations[k]->At(i, 0).AsInt64() * domain +
             relations[k]->At(i, 1).AsInt64()] = 1;
    }
  }
  // Breadth-first variable order from variable 0, so every later variable
  // has an already-assigned neighbour to prune against.
  const std::size_t nv = shape.num_vars;
  std::vector<int> order{0};
  std::vector<char> seen(nv, 0);
  seen[0] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& [u, v] : shape.edges) {
      for (int w : {u == order[head] ? v : -1, v == order[head] ? u : -1}) {
        if (w >= 0 && !seen[w]) {
          seen[w] = 1;
          order.push_back(w);
        }
      }
    }
  }
  HTQO_CHECK(order.size() == nv);
  std::vector<int> position(nv);
  for (std::size_t i = 0; i < nv; ++i) position[order[i]] = static_cast<int>(i);
  // Atoms checked when the later of their two variables is assigned.
  std::vector<std::vector<std::size_t>> checks(nv);
  for (std::size_t e = 0; e < shape.edges.size(); ++e) {
    const auto& [u, v] = shape.edges[e];
    checks[std::max(position[u], position[v])].push_back(e);
  }
  std::vector<int64_t> value(nv, 0);
  auto consistent = [&](std::size_t depth) {
    for (std::size_t e : checks[depth]) {
      const auto& [u, v] = shape.edges[e];
      if (!has[shape.edge_relation[e]][value[u] * domain + value[v]]) {
        return false;
      }
    }
    return true;
  };
  auto extend = [&](auto&& self, std::size_t depth) -> bool {
    if (depth == nv) return true;
    for (int64_t x = 0; x < domain; ++x) {
      value[order[depth]] = x;
      if (consistent(depth) && self(self, depth + 1)) return true;
    }
    return false;
  };
  std::vector<int64_t> out;
  for (int64_t x = 0; x < domain; ++x) {
    value[0] = x;
    if (consistent(0) && extend(extend, 1)) out.push_back(x);
  }
  return out;
}

}  // namespace e2e
