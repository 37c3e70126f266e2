#include "sql/ast.h"

#include "util/strings.h"

namespace htqo {

std::string AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

Expr Expr::MakeColumnRef(std::string table, std::string column) {
  Expr e;
  e.kind = ExprKind::kColumnRef;
  e.table = std::move(table);
  e.column = std::move(column);
  return e;
}

Expr Expr::MakeLiteral(Value v) {
  Expr e;
  e.kind = ExprKind::kLiteral;
  e.literal = std::move(v);
  return e;
}

Expr Expr::MakeBinary(char op, Expr lhs, Expr rhs) {
  Expr e;
  e.kind = ExprKind::kBinary;
  e.op = op;
  e.lhs = std::make_unique<Expr>(std::move(lhs));
  e.rhs = std::make_unique<Expr>(std::move(rhs));
  return e;
}

Expr Expr::MakeAggregate(AggFunc f, std::unique_ptr<Expr> arg) {
  Expr e;
  e.kind = ExprKind::kAggregate;
  e.agg = f;
  e.lhs = std::move(arg);
  return e;
}

Expr Expr::MakeScalarSubquery(
    std::shared_ptr<const SelectStatement> subquery) {
  Expr e;
  e.kind = ExprKind::kScalarSubquery;
  e.subquery = std::move(subquery);
  return e;
}

Expr Expr::Clone() const {
  Expr e;
  e.kind = kind;
  e.table = table;
  e.column = column;
  e.literal = literal;
  e.op = op;
  e.agg = agg;
  e.subquery = subquery;  // shared, immutable after parse
  if (lhs) e.lhs = std::make_unique<Expr>(lhs->Clone());
  if (rhs) e.rhs = std::make_unique<Expr>(rhs->Clone());
  return e;
}

bool Expr::ContainsScalarSubquery() const {
  if (kind == ExprKind::kScalarSubquery) return true;
  if (lhs && lhs->ContainsScalarSubquery()) return true;
  if (rhs && rhs->ContainsScalarSubquery()) return true;
  return false;
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregate) return true;
  if (lhs && lhs->ContainsAggregate()) return true;
  if (rhs && rhs->ContainsAggregate()) return true;
  return false;
}

void Expr::CollectColumnRefs(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kColumnRef) {
    out->push_back(this);
    return;
  }
  if (lhs) lhs->CollectColumnRefs(out);
  if (rhs) rhs->CollectColumnRefs(out);
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kLiteral:
      return literal.ToString(/*quoted=*/true);
    case ExprKind::kBinary:
      return "(" + lhs->ToString() + " " + std::string(1, op) + " " +
             rhs->ToString() + ")";
    case ExprKind::kAggregate:
      return AggFuncName(agg) + "(" + (lhs ? lhs->ToString() : "*") + ")";
    case ExprKind::kScalarSubquery:
      return "(" + subquery->ToString() + ")";
  }
  return "?";
}

std::string CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  int cmp = a.Compare(b);
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

std::string Comparison::ToString() const {
  return lhs.ToString() + " " + CompareOpSymbol(op) + " " + rhs.ToString();
}

InCondition InCondition::Clone() const {
  InCondition out;
  out.lhs = lhs.Clone();
  out.negated = negated;
  out.values = values;
  out.subquery = subquery;  // shared, immutable after parse
  return out;
}

std::string InCondition::ToString() const {
  std::string out = lhs.ToString() + (negated ? " NOT IN (" : " IN (");
  if (subquery != nullptr) {
    out += subquery->ToString();
  } else {
    std::vector<std::string> parts;
    parts.reserve(values.size());
    for (const Value& v : values) parts.push_back(v.ToString(true));
    out += Join(parts, ", ");
  }
  return out + ")";
}

std::string TableRef::ToString() const {
  if (IsDerived()) {
    return "(" + subquery->ToString() + ") " + alias;
  }
  return EqualsIgnoreCase(name, alias) ? name : name + " " + alias;
}

std::string SelectItem::ToString() const {
  std::string out = expr.ToString();
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

SelectStatement SelectStatement::Clone() const {
  SelectStatement out;
  out.distinct = distinct;
  out.items.reserve(items.size());
  for (const auto& i : items) out.items.push_back(i.Clone());
  out.from = from;
  out.where.reserve(where.size());
  for (const auto& w : where) out.where.push_back(w.Clone());
  out.where_in.reserve(where_in.size());
  for (const auto& w : where_in) out.where_in.push_back(w.Clone());
  out.group_by.reserve(group_by.size());
  for (const auto& g : group_by) out.group_by.push_back(g.Clone());
  out.having.reserve(having.size());
  for (const auto& hv : having) out.having.push_back(hv.Clone());
  out.order_by = order_by;
  out.limit = limit;
  return out;
}

bool SelectStatement::HasDerivedTables() const {
  for (const TableRef& t : from) {
    if (t.IsDerived()) return true;
  }
  return false;
}

bool SelectStatement::HasInSubqueries() const {
  for (const InCondition& c : where_in) {
    if (c.subquery != nullptr) return true;
  }
  return false;
}

namespace {

void CollectExprBaseTables(const Expr& e, std::vector<std::string>* out) {
  if (e.subquery != nullptr) e.subquery->CollectBaseTables(out);
  if (e.lhs) CollectExprBaseTables(*e.lhs, out);
  if (e.rhs) CollectExprBaseTables(*e.rhs, out);
}

}  // namespace

void SelectStatement::CollectBaseTables(std::vector<std::string>* out) const {
  for (const TableRef& t : from) {
    if (t.IsDerived()) {
      t.subquery->CollectBaseTables(out);
    } else {
      out->push_back(t.name);
    }
  }
  for (const Comparison& c : where) {
    CollectExprBaseTables(c.lhs, out);
    CollectExprBaseTables(c.rhs, out);
  }
  for (const InCondition& c : where_in) {
    CollectExprBaseTables(c.lhs, out);
    if (c.subquery != nullptr) c.subquery->CollectBaseTables(out);
  }
}

bool SelectStatement::HasAggregates() const {
  for (const auto& item : items) {
    if (item.expr.ContainsAggregate()) return true;
  }
  return false;
}

std::string SelectStatement::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  std::vector<std::string> parts;
  parts.reserve(items.size());
  for (const auto& i : items) parts.push_back(i.ToString());
  out += Join(parts, ", ");
  out += "\nFROM ";
  parts.clear();
  for (const auto& t : from) parts.push_back(t.ToString());
  out += Join(parts, ", ");
  if (!where.empty() || !where_in.empty()) {
    out += "\nWHERE ";
    parts.clear();
    for (const auto& w : where) parts.push_back(w.ToString());
    for (const auto& w : where_in) parts.push_back(w.ToString());
    out += Join(parts, "\n  AND ");
  }
  if (!group_by.empty()) {
    out += "\nGROUP BY ";
    parts.clear();
    for (const auto& g : group_by) parts.push_back(g.ToString());
    out += Join(parts, ", ");
  }
  if (!having.empty()) {
    out += "\nHAVING ";
    parts.clear();
    for (const auto& hv : having) parts.push_back(hv.ToString());
    out += Join(parts, "\n  AND ");
  }
  if (!order_by.empty()) {
    out += "\nORDER BY ";
    parts.clear();
    for (const auto& o : order_by) {
      parts.push_back(o.name + (o.descending ? " DESC" : ""));
    }
    out += Join(parts, ", ");
  }
  if (limit.has_value()) {
    out += "\nLIMIT " + std::to_string(*limit);
  }
  return out;
}

}  // namespace htqo
