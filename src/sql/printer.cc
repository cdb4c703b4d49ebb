#include "sql/printer.h"

#include "common/string_util.h"
#include "types/date.h"

namespace hyperq::sql {

namespace {

std::string QuoteStringLiteral(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string PrintLiteral(const types::Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_boolean()) return v.boolean() ? "TRUE" : "FALSE";
  if (v.is_string()) return QuoteStringLiteral(v.string_value());
  if (v.is_date()) return "DATE '" + types::FormatDateIso(v.date_days()) + "'";
  if (v.is_timestamp()) {
    return "TIMESTAMP '" + types::FormatTimestampIso(v.timestamp_micros()) + "'";
  }
  if (v.is_int()) return std::to_string(v.int_value());
  if (v.is_float()) return common::Sprintf("%.17g", v.float_value());
  return v.decimal_value().ToString();
}

std::string PrintTableRef(const TableRef& ref) {
  std::string out = ref.name;
  if (!ref.alias.empty()) out += " " + ref.alias;
  return out;
}

// Parenthesize operands conservatively: cheap and always correct.
std::string Paren(const std::string& s) { return "(" + s + ")"; }

}  // namespace

std::string PrintExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return PrintLiteral(static_cast<const LiteralExpr&>(expr).value);
    case ExprKind::kColumnRef: {
      const auto& col = static_cast<const ColumnRefExpr&>(expr);
      return col.table.empty() ? col.column : col.table + "." + col.column;
    }
    case ExprKind::kPlaceholder:
      return ":" + static_cast<const PlaceholderExpr&>(expr).name;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      if (u.op == UnaryOp::kNegate) return "-" + Paren(PrintExpr(*u.operand));
      return "NOT " + Paren(PrintExpr(*u.operand));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return Paren(PrintExpr(*b.left)) + " " + std::string(BinaryOpSymbol(b.op)) + " " +
             Paren(PrintExpr(*b.right));
    }
    case ExprKind::kFunction: {
      const auto& fn = static_cast<const FunctionExpr&>(expr);
      std::string out = fn.name + "(";
      if (fn.distinct) out += "DISTINCT ";
      for (size_t i = 0; i < fn.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += PrintExpr(*fn.args[i]);
      }
      out += ")";
      return out;
    }
    case ExprKind::kCast: {
      const auto& cast = static_cast<const CastExpr&>(expr);
      std::string out = (cast.try_cast ? "TRY_CAST(" : "CAST(") + PrintExpr(*cast.operand) +
                        " AS " + cast.target.ToString();
      if (!cast.format.empty()) out += " FORMAT " + QuoteStringLiteral(cast.format);
      out += ")";
      return out;
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(expr);
      std::string out = "CASE";
      if (c.operand) out += " " + PrintExpr(*c.operand);
      for (const auto& [when, then] : c.whens) {
        out += " WHEN " + PrintExpr(*when) + " THEN " + PrintExpr(*then);
      }
      if (c.else_expr) out += " ELSE " + PrintExpr(*c.else_expr);
      out += " END";
      return out;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(expr);
      return Paren(PrintExpr(*isn.operand)) + (isn.negated ? " IS NOT NULL" : " IS NULL");
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      std::string out = Paren(PrintExpr(*in.operand)) + (in.negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < in.list.size(); ++i) {
        if (i != 0) out += ", ";
        out += PrintExpr(*in.list[i]);
      }
      out += ")";
      return out;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      // Bounds parse below comparison level, so they need explicit parens
      // when they carry comparison-level constructs.
      return Paren(PrintExpr(*bt.operand)) + (bt.negated ? " NOT BETWEEN " : " BETWEEN ") +
             Paren(PrintExpr(*bt.low)) + " AND " + Paren(PrintExpr(*bt.high));
    }
  }
  return "?";
}

namespace {

std::string PrintSelect(const SelectStmt& stmt) {
  std::string out = "SELECT ";
  if (stmt.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i != 0) out += ", ";
    out += PrintExpr(*stmt.items[i].expr);
    if (!stmt.items[i].alias.empty()) out += " AS " + stmt.items[i].alias;
  }
  if (stmt.has_from) {
    out += " FROM " + PrintTableRef(stmt.from);
    for (const auto& join : stmt.joins) {
      out += " JOIN " + PrintTableRef(join.table) + " ON " + PrintExpr(*join.on);
    }
  }
  if (stmt.where) out += " WHERE " + PrintExpr(*stmt.where);
  if (!stmt.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i != 0) out += ", ";
      out += PrintExpr(*stmt.group_by[i]);
    }
  }
  if (stmt.having) out += " HAVING " + PrintExpr(*stmt.having);
  if (!stmt.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i != 0) out += ", ";
      out += PrintExpr(*stmt.order_by[i].expr);
      if (stmt.order_by[i].descending) out += " DESC";
    }
  }
  if (stmt.top >= 0) out += " LIMIT " + std::to_string(stmt.top);
  return out;
}

}  // namespace

std::string PrintStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return PrintSelect(static_cast<const SelectStmt&>(stmt));
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      std::string out = "INSERT INTO " + ins.table;
      if (!ins.columns.empty()) {
        out += " (" + common::Join(ins.columns, ", ") + ")";
      }
      if (ins.select) {
        out += " " + PrintSelect(*ins.select);
      } else {
        out += " VALUES ";
        for (size_t r = 0; r < ins.rows.size(); ++r) {
          if (r != 0) out += ", ";
          out += "(";
          for (size_t i = 0; i < ins.rows[r].size(); ++i) {
            if (i != 0) out += ", ";
            out += PrintExpr(*ins.rows[r][i]);
          }
          out += ")";
        }
      }
      return out;
    }
    case StatementKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(stmt);
      std::string out = "UPDATE " + PrintTableRef(upd.table) + " SET ";
      for (size_t i = 0; i < upd.assignments.size(); ++i) {
        if (i != 0) out += ", ";
        out += upd.assignments[i].column + " = " + PrintExpr(*upd.assignments[i].value);
      }
      if (upd.has_from) out += " FROM " + PrintTableRef(upd.from);
      if (upd.where) out += " WHERE " + PrintExpr(*upd.where);
      if (upd.has_else_insert) {
        out += " ELSE INSERT";
        if (!upd.else_insert_columns.empty()) {
          out += " (" + common::Join(upd.else_insert_columns, ", ") + ")";
        }
        out += " VALUES (";
        for (size_t i = 0; i < upd.else_insert_values.size(); ++i) {
          if (i != 0) out += ", ";
          out += PrintExpr(*upd.else_insert_values[i]);
        }
        out += ")";
      }
      return out;
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      std::string out = "DELETE FROM " + PrintTableRef(del.table);
      if (del.has_using) out += " USING " + PrintTableRef(del.using_table);
      if (del.where) out += " WHERE " + PrintExpr(*del.where);
      return out;
    }
    case StatementKind::kMerge: {
      const auto& merge = static_cast<const MergeStmt&>(stmt);
      std::string source_text;
      if (merge.source_filter) {
        std::string alias = merge.source.alias.empty() ? "S" : merge.source.alias;
        source_text = "(SELECT * FROM " + merge.source.name + " WHERE " +
                      PrintExpr(*merge.source_filter) + ") " + alias;
      } else {
        source_text = PrintTableRef(merge.source);
      }
      std::string out = "MERGE INTO " + PrintTableRef(merge.target) + " USING " + source_text +
                        " ON " + PrintExpr(*merge.on);
      if (!merge.matched_update.empty()) {
        out += " WHEN MATCHED THEN UPDATE SET ";
        for (size_t i = 0; i < merge.matched_update.size(); ++i) {
          if (i != 0) out += ", ";
          out += merge.matched_update[i].column + " = " + PrintExpr(*merge.matched_update[i].value);
        }
      }
      if (!merge.insert_values.empty()) {
        out += " WHEN NOT MATCHED THEN INSERT";
        if (!merge.insert_columns.empty()) {
          out += " (" + common::Join(merge.insert_columns, ", ") + ")";
        }
        out += " VALUES (";
        for (size_t i = 0; i < merge.insert_values.size(); ++i) {
          if (i != 0) out += ", ";
          out += PrintExpr(*merge.insert_values[i]);
        }
        out += ")";
      }
      return out;
    }
    case StatementKind::kCreateTable: {
      const auto& create = static_cast<const CreateTableStmt&>(stmt);
      std::string out = "CREATE TABLE ";
      if (create.if_not_exists) out += "IF NOT EXISTS ";
      out += create.table + " (";
      for (size_t i = 0; i < create.schema.num_fields(); ++i) {
        if (i != 0) out += ", ";
        out += create.schema.field(i).ToString();
      }
      if (create.unique_primary && !create.primary_key.empty()) {
        out += ", PRIMARY KEY (" + common::Join(create.primary_key, ", ") + ")";
      }
      out += ")";
      return out;
    }
    case StatementKind::kDropTable: {
      const auto& drop = static_cast<const DropTableStmt&>(stmt);
      std::string out = "DROP TABLE ";
      if (drop.if_exists) out += "IF EXISTS ";
      out += drop.table;
      return out;
    }
  }
  return "";
}

}  // namespace hyperq::sql
