// Abstract syntax for the SQL fragment of the paper (Section 2):
// SELECT ... FROM ... WHERE <conjunction of comparisons> GROUP BY ... ORDER
// BY ..., with arithmetic expressions, aggregates, table aliases, qualified
// column names, date literals and interval arithmetic. No nesting, no OR —
// exactly the fragment the paper's Sql Analyzer handles.

#ifndef HTQO_SQL_AST_H_
#define HTQO_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/value.h"

namespace htqo {

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kBinary,
  kAggregate,
  kScalarSubquery,  // (SELECT ...) used as a value; WHERE only, uncorrelated
};

enum class AggFunc { kSum, kCount, kMin, kMax, kAvg };

std::string AggFuncName(AggFunc f);

struct SelectStatement;

// A single tagged-union expression node. A tagged struct (rather than a
// class hierarchy) keeps cloning, printing and evaluation in one switch.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kColumnRef: optional qualifier (table name or alias) + column name.
  std::string table;
  std::string column;

  // kLiteral.
  Value literal;

  // kBinary: op in {+, -, *, /}; operands in lhs/rhs.
  char op = 0;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;

  // kAggregate: func applied to lhs; COUNT(*) has lhs == nullptr.
  AggFunc agg = AggFunc::kCount;

  // kScalarSubquery: shared, immutable after parsing. Replaced by a literal
  // (HybridOptimizer::Run) before any evaluation.
  std::shared_ptr<const SelectStatement> subquery;

  Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
  Expr(Expr&&) = default;
  Expr& operator=(Expr&&) = default;

  static Expr MakeColumnRef(std::string table, std::string column);
  static Expr MakeLiteral(Value v);
  static Expr MakeBinary(char op, Expr lhs, Expr rhs);
  static Expr MakeAggregate(AggFunc f, std::unique_ptr<Expr> arg);
  static Expr MakeScalarSubquery(
      std::shared_ptr<const SelectStatement> subquery);

  // True when some node in the tree is a scalar subquery.
  bool ContainsScalarSubquery() const;

  Expr Clone() const;

  bool IsAggregate() const { return kind == ExprKind::kAggregate; }
  // True when some node in the tree is an aggregate call.
  bool ContainsAggregate() const;

  // Appends every column reference in the tree to `out`.
  void CollectColumnRefs(std::vector<const Expr*>* out) const;

  // SQL rendering.
  std::string ToString() const;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string CompareOpSymbol(CompareOp op);
// Evaluates `a <op> b` using Value::Compare.
bool EvalCompare(CompareOp op, const Value& a, const Value& b);

// One conjunct of the WHERE clause: <expr> <op> <expr>.
struct Comparison {
  Expr lhs;
  CompareOp op = CompareOp::kEq;
  Expr rhs;

  Comparison() = default;
  Comparison(Expr l, CompareOp o, Expr r)
      : lhs(std::move(l)), op(o), rhs(std::move(r)) {}
  Comparison(const Comparison&) = delete;
  Comparison& operator=(const Comparison&) = delete;
  Comparison(Comparison&&) = default;
  Comparison& operator=(Comparison&&) = default;

  Comparison Clone() const {
    return Comparison(lhs.Clone(), op, rhs.Clone());
  }

  std::string ToString() const;
};

// WHERE <lhs> IN (<literal list>) or <lhs> IN (SELECT ...). Exactly one of
// `values` / `subquery` is populated. Uncorrelated subqueries only.
struct InCondition {
  Expr lhs;
  bool negated = false;  // NOT IN
  std::vector<Value> values;
  std::shared_ptr<const SelectStatement> subquery;

  InCondition() = default;
  InCondition(const InCondition&) = delete;
  InCondition& operator=(const InCondition&) = delete;
  InCondition(InCondition&&) = default;
  InCondition& operator=(InCondition&&) = default;

  InCondition Clone() const;
  std::string ToString() const;
};

struct TableRef {
  std::string name;   // base relation name (empty for a derived table)
  std::string alias;  // equals `name` when no alias was written

  // Derived table: FROM (SELECT ...) alias. Shared and treated as
  // immutable after parsing, so TableRef stays cheaply copyable.
  std::shared_ptr<const SelectStatement> subquery;

  bool IsDerived() const { return subquery != nullptr; }

  std::string ToString() const;
};

struct SelectItem {
  Expr expr;
  std::string alias;  // empty when none

  SelectItem() = default;
  SelectItem(Expr e, std::string a) : expr(std::move(e)), alias(std::move(a)) {}
  SelectItem(const SelectItem&) = delete;
  SelectItem& operator=(const SelectItem&) = delete;
  SelectItem(SelectItem&&) = default;
  SelectItem& operator=(SelectItem&&) = default;

  SelectItem Clone() const { return SelectItem(expr.Clone(), alias); }
  std::string ToString() const;
};

struct OrderItem {
  // Refers to a select-list alias or a column name.
  std::string name;
  bool descending = false;
};

struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::vector<Comparison> where;   // implicit conjunction
  std::vector<InCondition> where_in;  // IN conjuncts (conjoined with where)
  std::vector<Expr> group_by;      // column refs only
  std::vector<Comparison> having;  // conjunction over aggregates/group cols
  std::vector<OrderItem> order_by;
  std::optional<std::size_t> limit;

  SelectStatement() = default;
  SelectStatement(const SelectStatement&) = delete;
  SelectStatement& operator=(const SelectStatement&) = delete;
  SelectStatement(SelectStatement&&) = default;
  SelectStatement& operator=(SelectStatement&&) = default;

  SelectStatement Clone() const;

  bool HasAggregates() const;

  // True when some FROM entry is a derived table (nested SELECT).
  bool HasDerivedTables() const;

  // True when some IN conjunct carries a subquery.
  bool HasInSubqueries() const;

  // Appends the names of the base relations the statement reads at any
  // nesting depth: FROM entries, derived tables, IN and scalar subqueries.
  void CollectBaseTables(std::vector<std::string>* out) const;

  // SQL text rendering; reparsing the result yields an equivalent statement.
  std::string ToString() const;
};

}  // namespace htqo

#endif  // HTQO_SQL_AST_H_
