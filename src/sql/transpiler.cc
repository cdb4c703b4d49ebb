#include "sql/transpiler.h"

#include "common/string_util.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "types/type_mapping.h"

namespace hyperq::sql {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;

namespace {

ExprPtr MakeFn(std::string name, std::vector<ExprPtr> args) {
  auto fn = std::make_unique<FunctionExpr>();
  fn->name = std::move(name);
  fn->args = std::move(args);
  return fn;
}

Result<std::vector<ExprPtr>> TranspileArgs(const std::vector<ExprPtr>& args) {
  std::vector<ExprPtr> out;
  out.reserve(args.size());
  for (const auto& a : args) {
    HQ_ASSIGN_OR_RETURN(ExprPtr e, TranspileExpr(*a));
    out.push_back(std::move(e));
  }
  return out;
}

Result<std::unique_ptr<SelectStmt>> TranspileSelect(const SelectStmt& stmt) {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = stmt.distinct;
  out->has_from = stmt.has_from;
  out->from = stmt.from;
  out->top = stmt.top;
  for (const auto& item : stmt.items) {
    SelectItem copy;
    HQ_ASSIGN_OR_RETURN(copy.expr, TranspileExpr(*item.expr));
    copy.alias = item.alias;
    out->items.push_back(std::move(copy));
  }
  for (const auto& join : stmt.joins) {
    Join copy;
    copy.table = join.table;
    HQ_ASSIGN_OR_RETURN(copy.on, TranspileExpr(*join.on));
    out->joins.push_back(std::move(copy));
  }
  if (stmt.where) {
    HQ_ASSIGN_OR_RETURN(out->where, TranspileExpr(*stmt.where));
  }
  for (const auto& g : stmt.group_by) {
    HQ_ASSIGN_OR_RETURN(ExprPtr e, TranspileExpr(*g));
    out->group_by.push_back(std::move(e));
  }
  if (stmt.having) {
    HQ_ASSIGN_OR_RETURN(out->having, TranspileExpr(*stmt.having));
  }
  for (const auto& o : stmt.order_by) {
    OrderItem item;
    HQ_ASSIGN_OR_RETURN(item.expr, TranspileExpr(*o.expr));
    item.descending = o.descending;
    out->order_by.push_back(std::move(item));
  }
  return out;
}

}  // namespace

Result<ExprPtr> TranspileExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kPlaceholder:
    case ExprKind::kStar:
    case ExprKind::kUnary:
    case ExprKind::kCase:
    case ExprKind::kIsNull:
    case ExprKind::kInList:
    case ExprKind::kBetween:
      return MapChildren(expr, TranspileExpr);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr left, TranspileExpr(*b.left));
      HQ_ASSIGN_OR_RETURN(ExprPtr right, TranspileExpr(*b.right));
      if (b.op == BinaryOp::kPow) {
        std::vector<ExprPtr> args;
        args.push_back(std::move(left));
        args.push_back(std::move(right));
        return MakeFn("POWER", std::move(args));
      }
      if (b.op == BinaryOp::kMod) {
        std::vector<ExprPtr> args;
        args.push_back(std::move(left));
        args.push_back(std::move(right));
        return MakeFn("MOD", std::move(args));
      }
      return ExprPtr(std::make_unique<BinaryExpr>(b.op, std::move(left), std::move(right)));
    }
    case ExprKind::kFunction: {
      const auto& fn = static_cast<const FunctionExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, TranspileArgs(fn.args));
      if (EqualsIgnoreCase(fn.name, "ZEROIFNULL")) {
        if (args.size() != 1) return Status::ParseError("ZEROIFNULL takes one argument");
        args.push_back(std::make_unique<LiteralExpr>(types::Value::Int(0)));
        return MakeFn("COALESCE", std::move(args));
      }
      if (EqualsIgnoreCase(fn.name, "NULLIFZERO")) {
        if (args.size() != 1) return Status::ParseError("NULLIFZERO takes one argument");
        args.push_back(std::make_unique<LiteralExpr>(types::Value::Int(0)));
        return MakeFn("NULLIF", std::move(args));
      }
      if (EqualsIgnoreCase(fn.name, "NVL")) {
        return MakeFn("COALESCE", std::move(args));
      }
      if (EqualsIgnoreCase(fn.name, "INDEX")) {
        if (args.size() != 2) return Status::ParseError("INDEX takes two arguments");
        std::vector<ExprPtr> swapped;
        swapped.push_back(std::move(args[1]));
        swapped.push_back(std::move(args[0]));
        return MakeFn("POSITION", std::move(swapped));
      }
      if (EqualsIgnoreCase(fn.name, "CHARACTERS") || EqualsIgnoreCase(fn.name, "CHAR_LENGTH")) {
        return MakeFn("LENGTH", std::move(args));
      }
      auto copy = std::make_unique<FunctionExpr>();
      copy->name = common::ToUpper(fn.name);
      copy->distinct = fn.distinct;
      copy->args = std::move(args);
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kCast: {
      const auto& cast = static_cast<const CastExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, TranspileExpr(*cast.operand));
      if (!cast.format.empty()) {
        if (cast.try_cast) {
          return Status::NotImplemented("TRY_CAST ... FORMAT has no CDW translation");
        }
        auto fmt = std::make_unique<LiteralExpr>(types::Value::String(cast.format));
        std::vector<ExprPtr> args;
        args.push_back(std::move(operand));
        args.push_back(std::move(fmt));
        if (cast.target.id == types::TypeId::kDate) {
          return MakeFn("TO_DATE", std::move(args));
        }
        if (cast.target.id == types::TypeId::kTimestamp) {
          return MakeFn("TO_TIMESTAMP", std::move(args));
        }
        if (types::IsString(cast.target.id)) {
          // TO_CHAR then (implicitly) fit into the string type.
          ExprPtr to_char = MakeFn("TO_CHAR", std::move(args));
          HQ_ASSIGN_OR_RETURN(types::TypeDesc mapped, types::MapLegacyTypeToCdw(cast.target));
          return ExprPtr(std::make_unique<CastExpr>(std::move(to_char), mapped));
        }
        return Status::NotImplemented("FORMAT cast to " + cast.target.ToString() +
                                      " has no CDW translation");
      }
      HQ_ASSIGN_OR_RETURN(types::TypeDesc mapped, types::MapLegacyTypeToCdw(cast.target));
      return ExprPtr(std::make_unique<CastExpr>(std::move(operand), mapped, "", cast.try_cast));
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<StatementPtr> TranspileStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      HQ_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> select,
                          TranspileSelect(static_cast<const SelectStmt&>(stmt)));
      return StatementPtr(std::move(select));
    }
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      auto out = std::make_unique<InsertStmt>();
      out->table = ins.table;
      out->columns = ins.columns;
      for (const auto& row : ins.rows) {
        std::vector<ExprPtr> copy;
        for (const auto& e : row) {
          HQ_ASSIGN_OR_RETURN(ExprPtr item, TranspileExpr(*e));
          copy.push_back(std::move(item));
        }
        out->rows.push_back(std::move(copy));
      }
      if (ins.select) {
        HQ_ASSIGN_OR_RETURN(out->select, TranspileSelect(*ins.select));
      }
      return StatementPtr(std::move(out));
    }
    case StatementKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(stmt);
      if (upd.has_else_insert) {
        return Status::NotImplemented(
            "UPDATE ... ELSE INSERT requires staging binding; bind placeholders first "
            "(BindDmlToStaging) so it becomes MERGE");
      }
      auto out = std::make_unique<UpdateStmt>();
      out->table = upd.table;
      out->has_from = upd.has_from;
      out->from = upd.from;
      for (const auto& a : upd.assignments) {
        Assignment copy;
        copy.column = a.column;
        HQ_ASSIGN_OR_RETURN(copy.value, TranspileExpr(*a.value));
        out->assignments.push_back(std::move(copy));
      }
      if (upd.where) {
        HQ_ASSIGN_OR_RETURN(out->where, TranspileExpr(*upd.where));
      }
      return StatementPtr(std::move(out));
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      auto out = std::make_unique<DeleteStmt>();
      out->table = del.table;
      out->has_using = del.has_using;
      out->using_table = del.using_table;
      if (del.where) {
        HQ_ASSIGN_OR_RETURN(out->where, TranspileExpr(*del.where));
      }
      return StatementPtr(std::move(out));
    }
    case StatementKind::kMerge: {
      const auto& merge = static_cast<const MergeStmt&>(stmt);
      auto out = std::make_unique<MergeStmt>();
      out->target = merge.target;
      out->source = merge.source;
      if (merge.source_filter) {
        HQ_ASSIGN_OR_RETURN(out->source_filter, TranspileExpr(*merge.source_filter));
      }
      HQ_ASSIGN_OR_RETURN(out->on, TranspileExpr(*merge.on));
      for (const auto& a : merge.matched_update) {
        Assignment copy;
        copy.column = a.column;
        HQ_ASSIGN_OR_RETURN(copy.value, TranspileExpr(*a.value));
        out->matched_update.push_back(std::move(copy));
      }
      out->insert_columns = merge.insert_columns;
      for (const auto& e : merge.insert_values) {
        HQ_ASSIGN_OR_RETURN(ExprPtr item, TranspileExpr(*e));
        out->insert_values.push_back(std::move(item));
      }
      return StatementPtr(std::move(out));
    }
    case StatementKind::kCreateTable: {
      const auto& create = static_cast<const CreateTableStmt&>(stmt);
      auto out = std::make_unique<CreateTableStmt>();
      out->table = create.table;
      HQ_ASSIGN_OR_RETURN(out->schema, types::MapLegacySchemaToCdw(create.schema));
      out->primary_key = create.primary_key;
      out->unique_primary = create.unique_primary;
      out->if_not_exists = create.if_not_exists;
      return StatementPtr(std::move(out));
    }
    case StatementKind::kDropTable: {
      const auto& drop = static_cast<const DropTableStmt&>(stmt);
      auto out = std::make_unique<DropTableStmt>();
      out->table = drop.table;
      out->if_exists = drop.if_exists;
      return StatementPtr(std::move(out));
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<std::string> TranspileSqlText(std::string_view legacy_sql) {
  HQ_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(legacy_sql));
  HQ_ASSIGN_OR_RETURN(StatementPtr cdw, TranspileStatement(*stmt));
  return PrintStatement(*cdw);
}

}  // namespace hyperq::sql
