#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/type.h"
#include "types/value.h"

/// \file ast.h
/// SQL abstract syntax shared by the legacy dialect and the CDW dialect.
/// The parser produces this AST; the transpiler rewrites legacy-only
/// constructs (CAST ... FORMAT, '**', ZEROIFNULL, UPDATE ... ELSE INSERT,
/// named :placeholders) into CDW-compatible ones; the printer renders either
/// dialect; the CDW executor consumes the CDW subset.

namespace hyperq::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,
  kPlaceholder,
  kStar,
  kUnary,
  kBinary,
  kFunction,
  kCast,
  kCase,
  kIsNull,
  kInList,
  kBetween,
};

enum class UnaryOp : uint8_t { kNegate, kNot };

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kPow,  ///< legacy '**'; transpiles to POWER()
  kConcat,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
};

std::string_view BinaryOpSymbol(BinaryOp op);

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  ExprKind kind;

  virtual ExprPtr Clone() const = 0;
};

struct LiteralExpr : Expr {
  types::Value value;
  LiteralExpr() : Expr(ExprKind::kLiteral) {}
  explicit LiteralExpr(types::Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  ExprPtr Clone() const override { return std::make_unique<LiteralExpr>(value); }
};

struct ColumnRefExpr : Expr {
  std::string table;  ///< optional qualifier (table or alias)
  std::string column;
  ColumnRefExpr() : Expr(ExprKind::kColumnRef) {}
  ColumnRefExpr(std::string t, std::string c)
      : Expr(ExprKind::kColumnRef), table(std::move(t)), column(std::move(c)) {}
  ExprPtr Clone() const override { return std::make_unique<ColumnRefExpr>(table, column); }
};

/// Legacy DML field binding, e.g. `:CUST_ID` in Example 2.1 of the paper.
struct PlaceholderExpr : Expr {
  std::string name;
  PlaceholderExpr() : Expr(ExprKind::kPlaceholder) {}
  explicit PlaceholderExpr(std::string n) : Expr(ExprKind::kPlaceholder), name(std::move(n)) {}
  ExprPtr Clone() const override { return std::make_unique<PlaceholderExpr>(name); }
};

/// `*` (select list or COUNT(*)).
struct StarExpr : Expr {
  StarExpr() : Expr(ExprKind::kStar) {}
  ExprPtr Clone() const override { return std::make_unique<StarExpr>(); }
};

struct UnaryExpr : Expr {
  UnaryOp op;
  ExprPtr operand;
  UnaryExpr(UnaryOp o, ExprPtr e) : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  ExprPtr Clone() const override { return std::make_unique<UnaryExpr>(op, operand->Clone()); }
};

struct BinaryExpr : Expr {
  BinaryOp op;
  ExprPtr left;
  ExprPtr right;
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), left(std::move(l)), right(std::move(r)) {}
  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op, left->Clone(), right->Clone());
  }
};

struct FunctionExpr : Expr {
  std::string name;  ///< original case; compared case-insensitively
  std::vector<ExprPtr> args;
  bool distinct = false;  ///< COUNT(DISTINCT x)
  FunctionExpr() : Expr(ExprKind::kFunction) {}
  FunctionExpr(std::string n, std::vector<ExprPtr> a)
      : Expr(ExprKind::kFunction), name(std::move(n)), args(std::move(a)) {}
  ExprPtr Clone() const override {
    auto copy = std::make_unique<FunctionExpr>();
    copy->name = name;
    copy->distinct = distinct;
    for (const auto& a : args) copy->args.push_back(a->Clone());
    return copy;
  }
};

struct CastExpr : Expr {
  ExprPtr operand;
  types::TypeDesc target;
  std::string format;  ///< legacy FORMAT clause; empty in the CDW dialect
  /// CDW `TRY_CAST`: a value that does not convert yields NULL.
  bool try_cast = false;
  CastExpr(ExprPtr e, types::TypeDesc t, std::string fmt = {}, bool is_try = false)
      : Expr(ExprKind::kCast),
        operand(std::move(e)),
        target(t),
        format(std::move(fmt)),
        try_cast(is_try) {}
  ExprPtr Clone() const override {
    return std::make_unique<CastExpr>(operand->Clone(), target, format, try_cast);
  }
};

struct CaseExpr : Expr {
  ExprPtr operand;  ///< may be null (searched CASE)
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  ExprPtr else_expr;  ///< may be null
  CaseExpr() : Expr(ExprKind::kCase) {}
  ExprPtr Clone() const override {
    auto copy = std::make_unique<CaseExpr>();
    if (operand) copy->operand = operand->Clone();
    for (const auto& [w, t] : whens) copy->whens.emplace_back(w->Clone(), t->Clone());
    if (else_expr) copy->else_expr = else_expr->Clone();
    return copy;
  }
};

struct IsNullExpr : Expr {
  ExprPtr operand;
  bool negated;
  IsNullExpr(ExprPtr e, bool neg) : Expr(ExprKind::kIsNull), operand(std::move(e)), negated(neg) {}
  ExprPtr Clone() const override {
    return std::make_unique<IsNullExpr>(operand->Clone(), negated);
  }
};

struct InListExpr : Expr {
  ExprPtr operand;
  std::vector<ExprPtr> list;
  bool negated = false;
  InListExpr() : Expr(ExprKind::kInList) {}
  ExprPtr Clone() const override {
    auto copy = std::make_unique<InListExpr>();
    copy->operand = operand->Clone();
    for (const auto& e : list) copy->list.push_back(e->Clone());
    copy->negated = negated;
    return copy;
  }
};

struct BetweenExpr : Expr {
  ExprPtr operand;
  ExprPtr low;
  ExprPtr high;
  bool negated = false;
  BetweenExpr() : Expr(ExprKind::kBetween) {}
  ExprPtr Clone() const override {
    auto copy = std::make_unique<BetweenExpr>();
    copy->operand = operand->Clone();
    copy->low = low->Clone();
    copy->high = high->Clone();
    copy->negated = negated;
    return copy;
  }
};

/// A copy of `expr` with every child replaced by `rewrite(child)`; a leaf
/// (literal, column reference, placeholder, star) is cloned. The shared step
/// of the bottom-up rewrites: binding, transpiling, literal substitution.
common::Result<ExprPtr> MapChildren(
    const Expr& expr, const std::function<common::Result<ExprPtr>(const Expr&)>& rewrite);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind : uint8_t {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kMerge,
  kCreateTable,
  kDropTable,
};

struct Statement {
  explicit Statement(StatementKind k) : kind(k) {}
  virtual ~Statement() = default;
  StatementKind kind;
};

using StatementPtr = std::unique_ptr<Statement>;

/// Table reference with optional alias.
struct TableRef {
  std::string name;   ///< possibly qualified, e.g. "PROD.CUSTOMER"
  std::string alias;  ///< empty when none
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

struct Join {
  TableRef table;
  ExprPtr on;
};

struct SelectStmt : Statement {
  bool distinct = false;
  std::vector<SelectItem> items;
  bool has_from = false;
  TableRef from;
  std::vector<Join> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t top = -1;  ///< legacy TOP n / CDW LIMIT n; -1 = none

  SelectStmt() : Statement(StatementKind::kSelect) {}
};

struct InsertStmt : Statement {
  std::string table;
  std::vector<std::string> columns;        ///< empty = positional
  std::vector<std::vector<ExprPtr>> rows;  ///< VALUES rows (may be empty)
  std::unique_ptr<SelectStmt> select;      ///< INSERT ... SELECT (or null)

  InsertStmt() : Statement(StatementKind::kInsert) {}
};

struct Assignment {
  std::string column;
  ExprPtr value;
};

struct UpdateStmt : Statement {
  TableRef table;
  std::vector<Assignment> assignments;
  bool has_from = false;
  TableRef from;  ///< CDW `UPDATE t SET ... FROM s WHERE ...`
  ExprPtr where;
  /// Legacy atomic upsert: `UPDATE ... ELSE INSERT VALUES (...)`.
  bool has_else_insert = false;
  std::vector<std::string> else_insert_columns;
  std::vector<ExprPtr> else_insert_values;

  UpdateStmt() : Statement(StatementKind::kUpdate) {}
};

struct DeleteStmt : Statement {
  TableRef table;
  bool has_using = false;
  TableRef using_table;  ///< CDW `DELETE FROM t USING s WHERE ...`
  ExprPtr where;

  DeleteStmt() : Statement(StatementKind::kDelete) {}
};

/// CDW MERGE (target of the transpiled legacy upsert).
struct MergeStmt : Statement {
  TableRef target;
  TableRef source;
  /// Optional restriction of the source relation, rendered as
  /// `USING (SELECT * FROM source WHERE filter) alias`. A row-range filter
  /// must live here and NOT in `on`: an out-of-range source row failing the
  /// ON condition would otherwise take the NOT MATCHED insert branch.
  ExprPtr source_filter;
  ExprPtr on;
  std::vector<Assignment> matched_update;  ///< empty = no WHEN MATCHED clause
  std::vector<std::string> insert_columns;
  std::vector<ExprPtr> insert_values;  ///< empty = no WHEN NOT MATCHED clause

  MergeStmt() : Statement(StatementKind::kMerge) {}
};

struct CreateTableStmt : Statement {
  std::string table;
  types::Schema schema;
  std::vector<std::string> primary_key;  ///< legacy UNIQUE PRIMARY INDEX cols
  bool unique_primary = false;
  bool if_not_exists = false;

  CreateTableStmt() : Statement(StatementKind::kCreateTable) {}
};

struct DropTableStmt : Statement {
  std::string table;
  bool if_exists = false;

  DropTableStmt() : Statement(StatementKind::kDropTable) {}
};

}  // namespace hyperq::sql
