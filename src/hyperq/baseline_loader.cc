#include "hyperq/baseline_loader.h"

#include "common/stopwatch.h"
#include "hyperq/error_handler.h"
#include "legacy/errors.h"
#include "sql/printer.h"
#include "sql/transpiler.h"

namespace hyperq::core {

using common::Result;
using common::Status;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using types::Value;

Result<ExprPtr> SubstitutePlaceholders(const Expr& expr, const types::Schema& layout,
                                       const legacy::VartextRecord& record) {
  switch (expr.kind) {
    case ExprKind::kPlaceholder: {
      const auto& ph = static_cast<const sql::PlaceholderExpr&>(expr);
      int idx = layout.FieldIndex(ph.name);
      if (idx < 0) {
        return Status::ParseError("placeholder :" + ph.name + " not in layout");
      }
      const legacy::VartextField& field = record[static_cast<size_t>(idx)];
      if (field.null) {
        return ExprPtr(std::make_unique<sql::LiteralExpr>(Value::Null()));
      }
      return ExprPtr(std::make_unique<sql::LiteralExpr>(Value::String(field.text)));
    }
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      return expr.Clone();
    case ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, SubstitutePlaceholders(*u.operand, layout, record));
      return ExprPtr(std::make_unique<sql::UnaryExpr>(u.op, std::move(operand)));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr left, SubstitutePlaceholders(*b.left, layout, record));
      HQ_ASSIGN_OR_RETURN(ExprPtr right, SubstitutePlaceholders(*b.right, layout, record));
      return ExprPtr(std::make_unique<sql::BinaryExpr>(b.op, std::move(left), std::move(right)));
    }
    case ExprKind::kFunction: {
      const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
      auto copy = std::make_unique<sql::FunctionExpr>();
      copy->name = fn.name;
      copy->distinct = fn.distinct;
      for (const auto& a : fn.args) {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, SubstitutePlaceholders(*a, layout, record));
        copy->args.push_back(std::move(e));
      }
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kCast: {
      const auto& cast = static_cast<const sql::CastExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, SubstitutePlaceholders(*cast.operand, layout, record));
      return ExprPtr(std::make_unique<sql::CastExpr>(std::move(operand), cast.target, cast.format,
                                                     cast.try_cast));
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      auto copy = std::make_unique<sql::CaseExpr>();
      if (c.operand) {
        HQ_ASSIGN_OR_RETURN(copy->operand, SubstitutePlaceholders(*c.operand, layout, record));
      }
      for (const auto& [w, t] : c.whens) {
        HQ_ASSIGN_OR_RETURN(ExprPtr we, SubstitutePlaceholders(*w, layout, record));
        HQ_ASSIGN_OR_RETURN(ExprPtr te, SubstitutePlaceholders(*t, layout, record));
        copy->whens.emplace_back(std::move(we), std::move(te));
      }
      if (c.else_expr) {
        HQ_ASSIGN_OR_RETURN(copy->else_expr, SubstitutePlaceholders(*c.else_expr, layout, record));
      }
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const sql::IsNullExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, SubstitutePlaceholders(*isn.operand, layout, record));
      return ExprPtr(std::make_unique<sql::IsNullExpr>(std::move(operand), isn.negated));
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      auto copy = std::make_unique<sql::InListExpr>();
      HQ_ASSIGN_OR_RETURN(copy->operand, SubstitutePlaceholders(*in.operand, layout, record));
      for (const auto& e : in.list) {
        HQ_ASSIGN_OR_RETURN(ExprPtr item, SubstitutePlaceholders(*e, layout, record));
        copy->list.push_back(std::move(item));
      }
      copy->negated = in.negated;
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      auto copy = std::make_unique<sql::BetweenExpr>();
      HQ_ASSIGN_OR_RETURN(copy->operand, SubstitutePlaceholders(*bt.operand, layout, record));
      HQ_ASSIGN_OR_RETURN(copy->low, SubstitutePlaceholders(*bt.low, layout, record));
      HQ_ASSIGN_OR_RETURN(copy->high, SubstitutePlaceholders(*bt.high, layout, record));
      copy->negated = bt.negated;
      return ExprPtr(std::move(copy));
    }
  }
  return Status::Internal("unknown expression kind");
}

namespace {

Result<sql::StatementPtr> SubstituteInStatement(const sql::Statement& stmt,
                                                const types::Schema& layout,
                                                const legacy::VartextRecord& record) {
  if (stmt.kind != sql::StatementKind::kInsert) {
    return Status::NotImplemented("baseline loader supports INSERT DML only");
  }
  const auto& ins = static_cast<const sql::InsertStmt&>(stmt);
  if (ins.rows.size() != 1) return Status::Invalid("baseline INSERT must have one VALUES row");
  auto out = std::make_unique<sql::InsertStmt>();
  out->table = ins.table;
  out->columns = ins.columns;
  std::vector<ExprPtr> row;
  for (const auto& e : ins.rows[0]) {
    HQ_ASSIGN_OR_RETURN(ExprPtr sub, SubstitutePlaceholders(*e, layout, record));
    row.push_back(std::move(sub));
  }
  out->rows.push_back(std::move(row));
  return sql::StatementPtr(std::move(out));
}

}  // namespace

Result<BaselineReport> BaselineSingletonLoader::Load(
    const sql::Statement& legacy_dml, const types::Schema& layout,
    const std::vector<legacy::VartextRecord>& records) {
  BaselineReport report;
  common::Stopwatch timer;
  uint64_t row_number = 0;
  for (const auto& record : records) {
    ++row_number;
    if (record.size() != layout.num_fields()) {
      std::string sql_text = "INSERT INTO " + error_table_ + " VALUES (" +
                             std::to_string(legacy::kErrFieldCountMismatch) + ", NULL, " +
                             SqlQuote("field count mismatch, row number: " +
                                      std::to_string(row_number)) +
                             ")";
      ++report.statements_issued;
      HQ_RETURN_NOT_OK(cdw_->ExecuteSql(sql_text).status());
      ++report.errors_logged;
      continue;
    }
    HQ_ASSIGN_OR_RETURN(sql::StatementPtr substituted,
                        SubstituteInStatement(legacy_dml, layout, record));
    HQ_ASSIGN_OR_RETURN(sql::StatementPtr cdw_stmt, sql::TranspileStatement(*substituted));
    std::string sql_text = sql::PrintStatement(*cdw_stmt);
    cdw::ExecOptions exec;
    exec.enforce_unique_primary = true;
    ++report.statements_issued;
    auto result = cdw_->ExecuteSql(sql_text, exec);
    if (result.ok()) {
      report.rows_loaded += result->rows_inserted;
      continue;
    }
    if (!result.status().IsConversionError() && !result.status().IsConstraintViolation()) {
      return result.status();
    }
    uint32_t code = result.status().IsConstraintViolation()
                        ? legacy::kErrUniquenessViolation
                        : legacy::kErrFormatViolation;
    std::string err_sql = "INSERT INTO " + error_table_ + " VALUES (" + std::to_string(code) +
                          ", NULL, " +
                          SqlQuote(result.status().message() +
                                   ", row number: " + std::to_string(row_number)) +
                          ")";
    ++report.statements_issued;
    HQ_RETURN_NOT_OK(cdw_->ExecuteSql(err_sql).status());
    ++report.errors_logged;
  }
  report.elapsed_seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace hyperq::core
