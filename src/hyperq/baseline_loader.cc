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
  if (expr.kind != ExprKind::kPlaceholder) {
    return sql::MapChildren(
        expr, [&](const Expr& child) { return SubstitutePlaceholders(child, layout, record); });
  }
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
  // One ET statement per error: that per-row cost is the Fig 11 baseline.
  auto log_error = [&](uint32_t code, const std::string& what) {
    ++report.statements_issued;
    HQ_RETURN_NOT_OK(cdw_->ExecuteSql(EtInsertSql(error_table_,
                                                  {{code, "",
                                                    what + ", row number: " +
                                                        std::to_string(row_number)}}))
                         .status());
    ++report.errors_logged;
    return Status::OK();
  };
  for (const auto& record : records) {
    ++row_number;
    if (record.size() != layout.num_fields()) {
      HQ_RETURN_NOT_OK(log_error(legacy::kErrFieldCountMismatch, "field count mismatch"));
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
    HQ_RETURN_NOT_OK(log_error(code, result.status().message()));
  }
  report.elapsed_seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace hyperq::core
