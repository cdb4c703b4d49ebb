#include "sql/binder.h"

#include "common/string_util.h"

namespace hyperq::sql {

using common::Result;
using common::Status;

namespace {

/// Replaces placeholders with staging column refs; optionally qualifies bare
/// column refs with the target alias (for UPDATE/DELETE/MERGE predicates).
class PlaceholderRewriter {
 public:
  PlaceholderRewriter(const types::Schema& layout, std::string staging_alias,
                      std::string target_alias_for_bare)
      : layout_(layout),
        staging_alias_(std::move(staging_alias)),
        target_alias_(std::move(target_alias_for_bare)) {}

  Result<ExprPtr> Rewrite(const Expr& expr) {
    if (expr.kind == ExprKind::kPlaceholder) {
      const auto& ph = static_cast<const PlaceholderExpr&>(expr);
      if (layout_.FieldIndex(ph.name) < 0) {
        return Status::ParseError("placeholder :" + ph.name + " does not match any layout field");
      }
      return ExprPtr(std::make_unique<ColumnRefExpr>(staging_alias_, ph.name));
    }
    if (expr.kind == ExprKind::kColumnRef) {
      const auto& col = static_cast<const ColumnRefExpr&>(expr);
      if (col.table.empty() && !target_alias_.empty()) {
        return ExprPtr(std::make_unique<ColumnRefExpr>(target_alias_, col.column));
      }
    }
    return MapChildren(expr, [this](const Expr& child) { return Rewrite(child); });
  }

 private:
  const types::Schema& layout_;
  std::string staging_alias_;
  std::string target_alias_;
};

/// Builds `<qual>.rownum BETWEEN first AND last` for adaptive-error
/// re-application; an empty qualifier yields the bare column (used inside
/// MERGE source subqueries).
ExprPtr MakeRowRangePredicate(const BindOptions& options, const std::string& qualifier) {
  auto between = std::make_unique<BetweenExpr>();
  between->operand = std::make_unique<ColumnRefExpr>(qualifier, options.row_number_column);
  between->low = std::make_unique<LiteralExpr>(types::Value::Int(options.first_row));
  between->high = std::make_unique<LiteralExpr>(types::Value::Int(options.last_row));
  return between;
}

ExprPtr MakeRowRangePredicate(const BindOptions& options) {
  return MakeRowRangePredicate(options, options.staging_alias);
}

ExprPtr AndTogether(ExprPtr a, ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(a), std::move(b));
}

bool RangeRequested(const BindOptions& options) {
  return !options.row_number_column.empty() && options.first_row >= 0;
}

}  // namespace

bool HasPlaceholders(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kPlaceholder:
      return true;
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      return false;
    case ExprKind::kUnary:
      return HasPlaceholders(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return HasPlaceholders(*b.left) || HasPlaceholders(*b.right);
    }
    case ExprKind::kFunction: {
      for (const auto& a : static_cast<const FunctionExpr&>(expr).args) {
        if (HasPlaceholders(*a)) return true;
      }
      return false;
    }
    case ExprKind::kCast:
      return HasPlaceholders(*static_cast<const CastExpr&>(expr).operand);
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(expr);
      if (c.operand && HasPlaceholders(*c.operand)) return true;
      for (const auto& [w, t] : c.whens) {
        if (HasPlaceholders(*w) || HasPlaceholders(*t)) return true;
      }
      return c.else_expr && HasPlaceholders(*c.else_expr);
    }
    case ExprKind::kIsNull:
      return HasPlaceholders(*static_cast<const IsNullExpr&>(expr).operand);
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (HasPlaceholders(*in.operand)) return true;
      for (const auto& e : in.list) {
        if (HasPlaceholders(*e)) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      return HasPlaceholders(*bt.operand) || HasPlaceholders(*bt.low) ||
             HasPlaceholders(*bt.high);
    }
  }
  return false;
}

Result<StatementPtr> BindDmlToStaging(const Statement& stmt, const types::Schema& layout,
                                      const BindOptions& options) {
  if (options.staging_table.empty()) return Status::Invalid("staging table name required");

  switch (stmt.kind) {
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      if (ins.select) {
        return Status::NotImplemented("INSERT ... SELECT is not a staged ETL DML");
      }
      if (ins.rows.size() != 1) {
        return Status::Invalid("ETL apply INSERT must have exactly one VALUES row");
      }
      PlaceholderRewriter rewriter(layout, options.staging_alias, /*target_alias=*/"");
      auto select = std::make_unique<SelectStmt>();
      select->has_from = true;
      select->from = TableRef{options.staging_table, options.staging_alias};
      for (const auto& e : ins.rows[0]) {
        SelectItem item;
        HQ_ASSIGN_OR_RETURN(item.expr, rewriter.Rewrite(*e));
        select->items.push_back(std::move(item));
      }
      if (RangeRequested(options)) select->where = MakeRowRangePredicate(options);
      auto out = std::make_unique<InsertStmt>();
      out->table = ins.table;
      out->columns = ins.columns;
      out->select = std::move(select);
      return StatementPtr(std::move(out));
    }

    case StatementKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(stmt);
      const std::string target_alias = upd.table.alias.empty() ? "T" : upd.table.alias;
      PlaceholderRewriter rewriter(layout, options.staging_alias, target_alias);

      if (upd.has_else_insert) {
        // Atomic upsert -> MERGE.
        if (!upd.where) {
          return Status::Invalid("UPDATE ... ELSE INSERT requires a WHERE join predicate");
        }
        auto merge = std::make_unique<MergeStmt>();
        merge->target = TableRef{upd.table.name, target_alias};
        merge->source = TableRef{options.staging_table, options.staging_alias};
        HQ_ASSIGN_OR_RETURN(ExprPtr on, rewriter.Rewrite(*upd.where));
        merge->on = std::move(on);
        // The row range restricts the SOURCE, never the ON condition: an
        // out-of-range row failing ON would take the NOT MATCHED branch.
        if (RangeRequested(options)) {
          merge->source_filter = MakeRowRangePredicate(options, /*qualifier=*/"");
        }
        for (const auto& a : upd.assignments) {
          Assignment copy;
          copy.column = a.column;
          HQ_ASSIGN_OR_RETURN(copy.value, rewriter.Rewrite(*a.value));
          merge->matched_update.push_back(std::move(copy));
        }
        merge->insert_columns = upd.else_insert_columns;
        for (const auto& e : upd.else_insert_values) {
          HQ_ASSIGN_OR_RETURN(ExprPtr item, rewriter.Rewrite(*e));
          merge->insert_values.push_back(std::move(item));
        }
        return StatementPtr(std::move(merge));
      }

      auto out = std::make_unique<UpdateStmt>();
      out->table = TableRef{upd.table.name, target_alias};
      out->has_from = true;
      out->from = TableRef{options.staging_table, options.staging_alias};
      for (const auto& a : upd.assignments) {
        Assignment copy;
        copy.column = a.column;
        HQ_ASSIGN_OR_RETURN(copy.value, rewriter.Rewrite(*a.value));
        out->assignments.push_back(std::move(copy));
      }
      ExprPtr where;
      if (upd.where) {
        HQ_ASSIGN_OR_RETURN(where, rewriter.Rewrite(*upd.where));
      }
      if (RangeRequested(options)) where = AndTogether(std::move(where), MakeRowRangePredicate(options));
      out->where = std::move(where);
      return StatementPtr(std::move(out));
    }

    case StatementKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      const std::string target_alias = del.table.alias.empty() ? "T" : del.table.alias;
      PlaceholderRewriter rewriter(layout, options.staging_alias, target_alias);
      auto out = std::make_unique<DeleteStmt>();
      out->table = TableRef{del.table.name, target_alias};
      out->has_using = true;
      out->using_table = TableRef{options.staging_table, options.staging_alias};
      ExprPtr where;
      if (del.where) {
        HQ_ASSIGN_OR_RETURN(where, rewriter.Rewrite(*del.where));
      }
      if (RangeRequested(options)) where = AndTogether(std::move(where), MakeRowRangePredicate(options));
      out->where = std::move(where);
      return StatementPtr(std::move(out));
    }

    case StatementKind::kSelect:
    case StatementKind::kMerge:
    case StatementKind::kCreateTable:
    case StatementKind::kDropTable:
      return Status::Invalid("only INSERT/UPDATE/DELETE DML can be bound to staging");
  }
  return Status::Invalid("only INSERT/UPDATE/DELETE DML can be bound to staging");
}

}  // namespace hyperq::sql
