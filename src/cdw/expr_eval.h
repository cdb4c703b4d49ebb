#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "types/schema.h"

/// \file expr_eval.h
/// Row-at-a-time expression evaluation over one or more bound table rows
/// (target table, staging table, join sides), read in place. This evaluator
/// implements the *CDW* dialect: legacy-only constructs (CAST ... FORMAT,
/// ZEROIFNULL, '**', :placeholders) are rejected — running them requires the
/// Hyper-Q transpiler first, which is the point of the paper.

namespace hyperq::cdw {

class Table;

/// One table row visible to column references under `alias`.
struct RowBinding {
  std::string alias;  ///< table alias or table name
  const Table* table;
  size_t row;
};

class EvalContext {
 public:
  void AddBinding(std::string alias, const Table* table, size_t row) {
    bindings_.push_back(RowBinding{std::move(alias), table, row});
  }

  /// Points binding `binding` (in AddBinding order) at another row of its
  /// table, so a scan reuses one context for every row.
  void SetRow(size_t binding, size_t row) { bindings_[binding].row = row; }

  /// Resolves a (possibly qualified) column. Unqualified names matching more
  /// than one binding are ambiguous.
  common::Result<types::Value> ResolveColumn(const std::string& qualifier,
                                             const std::string& name) const;

 private:
  std::vector<RowBinding> bindings_;
};

/// Evaluates a scalar expression. Conversion failures (e.g. TO_DATE on a
/// malformed string) return ConversionError — the executor turns that into a
/// whole-statement abort (set-oriented semantics).
common::Result<types::Value> EvaluateExpr(const sql::Expr& expr, const EvalContext& ctx);

/// Evaluates a WHERE/ON predicate: NULL counts as false, a non-boolean value
/// is a TypeError, and a null `where` is true.
common::Result<bool> PredicateTrue(const sql::Expr* where, const EvalContext& ctx);

/// True for COUNT/SUM/MIN/MAX/AVG.
bool IsAggregateFunction(std::string_view name);

/// True if the expression tree contains an aggregate call.
bool ContainsAggregate(const sql::Expr& expr);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace hyperq::cdw
