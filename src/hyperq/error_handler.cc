#include "hyperq/error_handler.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "hyperq/data_converter.h"
#include "legacy/errors.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "sql/transpiler.h"

namespace hyperq::core {

using common::Result;
using common::Status;
using types::Schema;
using types::TypeDesc;
using types::Value;

Schema MakeEtErrorSchema() {
  Schema schema;
  schema.AddField(types::Field("ERRORCODE", TypeDesc::Int32(), /*nullable=*/true));
  schema.AddField(types::Field("ERRORFIELD", TypeDesc::Varchar(128)));
  schema.AddField(types::Field("ERRORMESSAGE", TypeDesc::Varchar(1024)));
  return schema;
}

Schema MakeUvErrorSchema(const Schema& layout) {
  Schema schema;
  for (const auto& f : layout.fields()) {
    int32_t width = f.type.length > 0 ? f.type.length : 64;
    schema.AddField(types::Field(f.name, TypeDesc::Varchar(width)));
  }
  schema.AddField(types::Field("SEQNO", TypeDesc::Int64()));
  schema.AddField(types::Field("ERRCODE", TypeDesc::Int32()));
  return schema;
}

common::Result<Schema> MakeQuarantineSchema(const Schema& layout) {
  static constexpr const char* kReserved[] = {"QRTN_ROWNUM", "QRTN_CONSTRAINT", "QRTN_KIND",
                                              "QRTN_COLUMN", "QRTN_BOUND"};
  for (const char* name : kReserved) {
    if (layout.FieldIndex(name) >= 0) {
      return common::Status::Invalid(std::string("layout already contains reserved column ") +
                                     name);
    }
  }
  Schema schema;
  for (const auto& f : layout.fields()) {
    int32_t width = f.type.length > 0 ? f.type.length : 64;
    schema.AddField(types::Field(f.name, TypeDesc::Varchar(width)));
  }
  schema.AddField(types::Field("QRTN_ROWNUM", TypeDesc::Int64(), /*nullable=*/false));
  schema.AddField(types::Field("QRTN_CONSTRAINT", TypeDesc::Int32(), /*nullable=*/false));
  schema.AddField(types::Field("QRTN_KIND", TypeDesc::Varchar(16), /*nullable=*/false));
  schema.AddField(types::Field("QRTN_COLUMN", TypeDesc::Varchar(128)));
  schema.AddField(types::Field("QRTN_BOUND", TypeDesc::Varchar(256)));
  return schema;
}

std::string SqlQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string EtInsertSql(const std::string& et_table, const std::vector<EtRow>& rows) {
  std::string sql = "INSERT INTO " + et_table + " VALUES ";
  for (const EtRow& row : rows) {
    if (&row != &rows.front()) sql += ", ";
    sql += '(';
    sql += std::to_string(row.code);
    sql += ", ";
    sql += row.field.empty() ? "NULL" : SqlQuote(row.field);
    sql += ", ";
    sql += SqlQuote(row.message);
    sql += ')';
  }
  return sql;
}

void DmlApplyResult::Add(const DmlApplyResult& other) {
  static_assert(sizeof(DmlApplyResult) == 10 * sizeof(uint64_t), "Add every field");
  rows_inserted += other.rows_inserted;
  rows_updated += other.rows_updated;
  rows_deleted += other.rows_deleted;
  et_errors += other.et_errors;
  uv_errors += other.uv_errors;
  range_errors += other.range_errors;
  statements_issued += other.statements_issued;
  round_trips += other.round_trips;
  suspects += other.suspects;
  plan_fallbacks += other.plan_fallbacks;
}

AdaptiveDmlApplier::AdaptiveDmlApplier(cdw::CdwServer* cdw, const sql::Statement* legacy_dml,
                                       Schema layout, std::string staging_table,
                                       std::string target_table, std::string et_table,
                                       std::string uv_table, AdaptiveOptions options)
    : cdw_(cdw),
      legacy_dml_(legacy_dml),
      layout_(std::move(layout)),
      staging_table_(std::move(staging_table)),
      target_table_(std::move(target_table)),
      et_table_(std::move(et_table)),
      uv_table_(std::move(uv_table)),
      options_(options) {}

bool AdaptiveDmlApplier::IsAbsorbableFailure(const Status& s) {
  return s.IsConversionError() || s.IsConstraintViolation();
}

common::RetryPolicy AdaptiveDmlApplier::CdwRetry() const {
  common::RetryOptions options = options_.io_retry;
  options.breaker = common::BreakerFor("cdw");
  return common::RetryPolicy(std::move(options));
}

Result<cdw::ExecResult> AdaptiveDmlApplier::ExecSql(const std::string& sql_text,
                                                    DmlApplyResult* result,
                                                    const cdw::ExecOptions& exec) const {
  ++result->round_trips;
  return CdwRetry().RunResult<cdw::ExecResult>(
      "cdw.exec", [&](const common::RetryAttempt&) { return cdw_->ExecuteSql(sql_text, exec); });
}

Result<sql::StatementPtr> AdaptiveDmlApplier::Bind(uint64_t first, uint64_t last) const {
  sql::BindOptions bind;
  bind.staging_table = staging_table_;
  bind.row_number_column = kRowNumColumn;
  bind.first_row = static_cast<int64_t>(first);
  bind.last_row = static_cast<int64_t>(last);
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr bound, sql::BindDmlToStaging(*legacy_dml_, layout_, bind));
  return sql::TranspileStatement(*bound);
}

Result<cdw::BatchStatement> AdaptiveDmlApplier::BoundStatement(uint64_t first,
                                                                uint64_t last) const {
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr cdw_stmt, Bind(first, last));
  cdw::BatchStatement statement;
  // Hyper-Q ships SQL text to the warehouse, so round-trip through the
  // printer exactly as the real system does.
  statement.sql = sql::PrintStatement(*cdw_stmt);
  statement.options.enforce_unique_primary = options_.enforce_uniqueness;
  return statement;
}

namespace {

void AddCounts(const cdw::ExecResult& applied, DmlApplyResult* result) {
  result->rows_inserted += applied.rows_inserted;
  result->rows_updated += applied.rows_updated;
  result->rows_deleted += applied.rows_deleted;
}

// --- Suspect shapes -----------------------------------------------------------
// The bound INSERT...SELECT reads staging through this alias.
constexpr const char* kStagingAlias = "S";

sql::ExprPtr IsNull(sql::ExprPtr e, bool negated = false) {
  return std::make_unique<sql::IsNullExpr>(std::move(e), negated);
}

sql::ExprPtr Combine(sql::BinaryOp op, sql::ExprPtr a, sql::ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return std::make_unique<sql::BinaryExpr>(op, std::move(a), std::move(b));
}

/// The staging field `e` names, when it is a staging column reference.
const types::Field* StagingField(const sql::Expr& e, const Schema& staging) {
  if (e.kind != sql::ExprKind::kColumnRef) return nullptr;
  const auto& col = static_cast<const sql::ColumnRefExpr&>(e);
  if (!common::EqualsIgnoreCase(col.table, kStagingAlias)) return nullptr;
  const int idx = staging.FieldIndex(col.column);
  return idx < 0 ? nullptr : &staging.field(static_cast<size_t>(idx));
}

/// True when a transpiled select item cannot fail as an expression: a column
/// reference, a literal, or TRIM/LTRIM/RTRIM/UPPER/LOWER of a string staging
/// column. `*source`, when given, is the staging field it reads (or null).
bool CannotFail(const sql::Expr& e, const Schema& staging,
                const types::Field** source = nullptr) {
  const types::Field* unused = nullptr;
  if (source == nullptr) source = &unused;
  *source = nullptr;
  if (e.kind == sql::ExprKind::kLiteral) return true;
  if (e.kind == sql::ExprKind::kColumnRef) {
    *source = StagingField(e, staging);
    return true;
  }
  if (e.kind != sql::ExprKind::kFunction) return false;
  const auto& fn = static_cast<const sql::FunctionExpr&>(e);
  if (fn.args.size() != 1) return false;
  bool text_fn = false;
  for (const char* name : {"TRIM", "LTRIM", "RTRIM", "UPPER", "LOWER"}) {
    text_fn = text_fn || common::EqualsIgnoreCase(fn.name, name);
  }
  const types::Field* field = text_fn ? StagingField(*fn.args[0], staging) : nullptr;
  if (field == nullptr || !types::IsString(field->type.id)) return false;
  *source = field;
  return true;
}

/// True when the target's implicit cast of a `from` string can fail.
bool StringCastCanFail(const TypeDesc& from, const TypeDesc& to) {
  if (!types::IsString(to.id)) return true;
  return to.length > 0 && (from.length <= 0 || from.length > to.length);
}

/// The TRY_ form of TO_DATE/TO_TIMESTAMP(S.c, 'literal') or CAST(S.c AS T),
/// with `*column` set to S.c; null for any other shape.
sql::ExprPtr TryForm(const sql::Expr& e, const Schema& staging, const sql::Expr** column) {
  if (e.kind == sql::ExprKind::kCast) {
    const auto& cast = static_cast<const sql::CastExpr&>(e);
    if (cast.try_cast || !cast.format.empty() || StagingField(*cast.operand, staging) == nullptr) {
      return nullptr;
    }
    *column = cast.operand.get();
    return std::make_unique<sql::CastExpr>(cast.operand->Clone(), cast.target, "", true);
  }
  if (e.kind != sql::ExprKind::kFunction) return nullptr;
  const auto& fn = static_cast<const sql::FunctionExpr&>(e);
  const bool conversion = common::EqualsIgnoreCase(fn.name, "TO_DATE") ||
                          common::EqualsIgnoreCase(fn.name, "TO_TIMESTAMP");
  if (!conversion || fn.args.size() != 2 || StagingField(*fn.args[0], staging) == nullptr ||
      fn.args[1]->kind != sql::ExprKind::kLiteral) {
    return nullptr;
  }
  *column = fn.args[0].get();
  sql::ExprPtr copy = fn.Clone();
  auto& try_fn = static_cast<sql::FunctionExpr&>(*copy);
  try_fn.name = "TRY_" + common::ToUpper(fn.name);
  return copy;
}

/// The predicate that holds on the rows where loading `item` into `target`
/// fails. `*modelled` is false when the shape is not recognised; a
/// recognised item that cannot fail gives null.
sql::ExprPtr SuspectPredicate(const sql::Expr& item, const types::Field& target,
                              const Schema& staging, bool* modelled) {
  *modelled = true;
  const types::Field* source = nullptr;
  if (CannotFail(item, staging, &source)) {
    sql::ExprPtr p;
    if (!target.nullable) p = IsNull(item.Clone());
    if (source != nullptr && types::IsString(source->type.id) &&
        StringCastCanFail(source->type, target.type)) {
      sql::ExprPtr cast = std::make_unique<sql::CastExpr>(item.Clone(), target.type, "", true);
      p = Combine(sql::BinaryOp::kOr, std::move(p),
                  Combine(sql::BinaryOp::kAnd, IsNull(item.Clone(), /*negated=*/true),
                          IsNull(std::move(cast))));
    }
    return p;
  }
  const sql::Expr* column = nullptr;
  sql::ExprPtr converted = TryForm(item, staging, &column);
  if (!converted) {
    *modelled = false;
    return nullptr;
  }
  // NULL input converts to NULL, which a NOT NULL target rejects too.
  if (!target.nullable) return IsNull(std::move(converted));
  return Combine(sql::BinaryOp::kAnd, IsNull(column->Clone(), /*negated=*/true),
                 IsNull(std::move(converted)));
}

/// SELECT ... FROM <the bound select's staging> S WHERE <its range>, with
/// the select list left to the caller.
sql::SelectStmt StagingQuery(const sql::SelectStmt& bound) {
  sql::SelectStmt query;
  query.has_from = true;
  query.from = bound.from;
  query.where = bound.where->Clone();
  return query;
}

}  // namespace

bool AdaptiveDmlApplier::PlainInsert() const {
  return legacy_dml_->kind == sql::StatementKind::kInsert &&
         static_cast<const sql::InsertStmt&>(*legacy_dml_).rows.size() == 1;
}

Result<std::vector<AdaptiveDmlApplier::ItemModel>> AdaptiveDmlApplier::ModelItems(
    const sql::InsertStmt& bound) const {
  HQ_ASSIGN_OR_RETURN(cdw::TablePtr target, cdw_->catalog()->GetTable(bound.table));
  HQ_ASSIGN_OR_RETURN(cdw::TablePtr staging, cdw_->catalog()->GetTable(staging_table_));
  const Schema& target_schema = target->schema();
  const size_t ncolumns =
      bound.columns.empty() ? target_schema.num_fields() : bound.columns.size();
  std::vector<ItemModel> items;
  for (size_t i = 0; i < bound.select->items.size() && i < ncolumns; ++i) {
    const int idx = bound.columns.empty() ? static_cast<int>(i)
                                          : target_schema.FieldIndex(bound.columns[i]);
    if (idx < 0) return std::vector<ItemModel>{};
    const types::Field& column = target_schema.field(static_cast<size_t>(idx));
    ItemModel item;
    item.column = column.name;
    item.fails = SuspectPredicate(*bound.select->items[i].expr, column, staging->schema(),
                                  &item.modelled);
    items.push_back(std::move(item));
  }
  return items;
}

Result<std::vector<uint64_t>> AdaptiveDmlApplier::FindSuspects(uint64_t first, uint64_t last,
                                                               DmlApplyResult* result) {
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr bound, Bind(first, last));
  const auto& insert = static_cast<const sql::InsertStmt&>(*bound);
  HQ_ASSIGN_OR_RETURN(std::vector<ItemModel> items, ModelItems(insert));
  // SELECT S.HQ_ROWNUM, p1, p2, ... FROM <staging> S
  //   WHERE <range> AND (p1 OR p2 ...)
  sql::SelectStmt query = StagingQuery(*insert.select);
  query.items.push_back({std::make_unique<sql::ColumnRefExpr>(kStagingAlias, kRowNumColumn), ""});
  sql::ExprPtr any;
  std::vector<size_t> answered;  // the item each predicate column answers for
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].fails) continue;
    answered.push_back(i);
    query.items.push_back({items[i].fails->Clone(), ""});
    any = Combine(sql::BinaryOp::kOr, std::move(any), std::move(items[i].fails));
  }
  if (!any) return std::vector<uint64_t>{};
  query.where = Combine(sql::BinaryOp::kAnd, std::move(query.where), std::move(any));
  const std::string sql_text = sql::PrintStatement(query);
  ++result->statements_issued;
  HQ_ASSIGN_OR_RETURN(cdw::ExecResult rows, ExecSql(sql_text, result));

  // The first failing column settles ERRORFIELD when the model covers every
  // item before it; an item it does not recognise needs a probe.
  size_t unmodelled = 0;
  while (unmodelled < items.size() && items[unmodelled].modelled) ++unmodelled;
  std::vector<uint64_t> suspects;
  suspects.reserve(rows.rows.size());
  for (const types::Row& row : rows.rows) {
    const auto rownum = static_cast<uint64_t>(row[0].int_value());
    suspects.push_back(rownum);
    for (size_t k = 0; k < answered.size() && answered[k] < unmodelled; ++k) {
      const Value& fails = row[k + 1];
      if (fails.is_boolean() && fails.boolean()) {
        error_fields_[rownum] = items[answered[k]].column;
        break;
      }
    }
  }
  std::sort(suspects.begin(), suspects.end());
  return suspects;
}

Result<DmlApplyResult> AdaptiveDmlApplier::Apply(uint64_t first_row, uint64_t last_row) {
  DmlApplyResult result;
  const Status searched = Search(first_row, last_row, &result);
  if (et_rows_.empty()) {
    HQ_RETURN_NOT_OK(searched);
    return result;
  }
  // The ET rows the search recorded go out in one statement, also after the
  // search failed.
  ++result.statements_issued;
  const Status written = ExecSql(EtInsertSql(et_table_, et_rows_), &result).status();
  et_rows_.clear();
  HQ_RETURN_NOT_OK(searched);
  HQ_RETURN_NOT_OK(written);
  return result;
}

namespace {
// What the suspect query predicts for a node of the halving tree.
enum class Prediction : uint8_t { kNone, kClean, kSuspect };
}  // namespace

// A node of the halving tree: a row range, its split depth and its
// prediction.
struct AdaptiveDmlApplier::Node {
  uint64_t first;
  uint64_t last;
  int depth;
  Prediction prediction;
};

// The walk visits the halving tree depth first, left half first: the order
// the paper's recursion visits. It decides which node executes next and
// what a failed node becomes; the applier executes the nodes and records
// the errors. A copy of the walk plays ahead on predicted outcomes.
class AdaptiveDmlApplier::Walk {
 public:
  Walk(uint64_t first, uint64_t last, const AdaptiveOptions& options)
      : options_(&options), stack_{{first, last, 0, Prediction::kNone}} {}

  /// The next node to execute, or none when the walk is done.
  std::optional<Node> Next() {
    while (!stack_.empty() && stack_.back().prediction != Prediction::kNone) {
      const Node node = stack_.back();
      if (node.prediction == Prediction::kClean) {
        if (!run_) {
          rewind_ = stack_;
          run_ = node;
        }
        run_->last = node.last;
        stack_.pop_back();
        continue;
      }
      // A suspect is split without executing it, down to a singleton or the
      // cutoff, where it executes as halving would.
      if (node.first == node.last || Cutoff(node.depth)) break;
      stack_.pop_back();
      Split(node);
    }
    // The next node executes, or the walk ends: the pending run of
    // predicted-clean nodes (contiguous rows) goes first, in one statement.
    std::optional<Node> next = std::exchange(run_, std::nullopt);
    if (!next && !stack_.empty()) {
      next = stack_.back();
      stack_.pop_back();
    }
    return next;
  }

  /// What becomes of a node that failed with an absorbable error.
  enum class Step : uint8_t { kRewind, kSingleton, kRange, kSplit };
  Step Failed(const Node& node) {
    if (node.prediction == Prediction::kClean) {
      // No statement ran since the run's first node was deferred, so the
      // saved stack is the state halving would be in: restore it without
      // predictions, and the rest of the walk is halving.
      suspects_.clear();
      stack_ = std::move(rewind_);
      for (Node& n : stack_) n.prediction = Prediction::kNone;
      return Step::kRewind;
    }
    if (node.first == node.last) {
      ++errors_;
      return Step::kSingleton;
    }
    // At the cutoff the whole failing range is recorded (Figure 6's final
    // row).
    return Cutoff(node.depth) ? Step::kRange : Step::kSplit;
  }

  /// Predicts the nodes pushed from now on from `suspects` (ascending).
  void Predict(std::vector<uint64_t> suspects) { suspects_ = std::move(suspects); }

  /// Pushes both halves of `node`, predicted while there are suspects.
  void Split(const Node& node) {
    const uint64_t mid = node.first + (node.last - node.first) / 2;
    for (Node half : {Node{mid + 1, node.last, node.depth + 1, Prediction::kNone},
                      Node{node.first, mid, node.depth + 1, Prediction::kNone}}) {
      if (!suspects_.empty()) {
        auto it = std::lower_bound(suspects_.begin(), suspects_.end(), half.first);
        const bool suspect = it != suspects_.end() && *it <= half.last;
        half.prediction = suspect ? Prediction::kSuspect : Prediction::kClean;
      }
      stack_.push_back(half);
    }
  }

 private:
  /// True when a failed range at `depth` is recorded instead of split.
  bool Cutoff(int depth) const {
    return errors_ >= options_->max_errors || depth >= options_->max_retries;
  }

  const AdaptiveOptions* options_;
  std::vector<uint64_t> suspects_;  // empty while nothing is predicted
  std::vector<Node> stack_;
  std::optional<Node> run_;
  std::vector<Node> rewind_;  // the stack when the run's first node was deferred
  uint64_t errors_ = 0;       // singleton errors recorded
};

Status AdaptiveDmlApplier::Search(uint64_t first_row, uint64_t last_row,
                                  DmlApplyResult* result) {
  if (last_row < first_row) return Status::OK();  // empty load
  Walk walk(first_row, last_row, options_);
  Pending pending;
  while (std::optional<Node> node = walk.Next()) {
    auto attempt = Execute(walk, *node, &pending, result);
    if (attempt.ok()) {
      AddCounts(*attempt, result);
      continue;
    }
    const Status& failure = attempt.status();
    if (!IsAbsorbableFailure(failure)) return failure;
    switch (walk.Failed(*node)) {
      case Walk::Step::kRewind:
        ++result->plan_fallbacks;
        break;
      case Walk::Step::kSingleton:
        HQ_RETURN_NOT_OK(RecordSingletonError(node->first, failure, result));
        break;
      case Walk::Step::kRange:
        RecordRangeError(node->first, node->last, result);
        break;
      case Walk::Step::kSplit:
        // A failed root is planned once: the suspect query predicts its
        // halves. UPDATE, DELETE and MERGE keep halving: with repeated
        // keys, applying two ranges in one statement is not the same as
        // applying them one after the other.
        if (node->depth == 0 && options_.isolation == ErrorIsolation::kPlanned &&
            PlainInsert()) {
          Result<std::vector<uint64_t>> found = FindSuspects(node->first, node->last, result);
          if (found.ok() && !found->empty()) {
            result->suspects = found->size();
            walk.Predict(std::move(*found));
          } else {
            ++result->plan_fallbacks;
          }
        }
        walk.Split(*node);
        break;
    }
  }
  return Status::OK();
}

Result<cdw::ExecResult> AdaptiveDmlApplier::Execute(const Walk& walk, const Node& node,
                                                    Pending* pending, DmlApplyResult* result) {
  if (pending->empty() && node.prediction != Prediction::kNone) {
    HQ_ASSIGN_OR_RETURN(*pending, ExecuteBatch(walk, node, result));
  }
  if (pending->empty()) {
    HQ_ASSIGN_OR_RETURN(cdw::BatchStatement statement, BoundStatement(node.first, node.last));
    ++result->statements_issued;
    return ExecSql(statement.sql, result, statement.options);
  }
  Result<cdw::ExecResult> next = std::move(pending->front());
  pending->pop_front();
  return next;
}

Result<AdaptiveDmlApplier::Pending> AdaptiveDmlApplier::ExecuteBatch(Walk walk, const Node& node,
                                                                     DmlApplyResult* result) {
  // The walk's predictions are its outcomes here: a clean run succeeds and
  // a suspect fails with a conversion error. ExecBatch stops at the first
  // statement that does otherwise, and the walk takes it from there.
  std::vector<cdw::BatchStatement> batch;
  for (std::optional<Node> n = node; n && n->prediction != Prediction::kNone; n = walk.Next()) {
    HQ_ASSIGN_OR_RETURN(cdw::BatchStatement statement, BoundStatement(n->first, n->last));
    const bool suspect = n->prediction == Prediction::kSuspect;
    statement.expect_conversion_error = suspect;
    batch.push_back(std::move(statement));
    if (suspect) walk.Failed(*n);
  }
  ++result->round_trips;
  // Injected faults reject a batch before any statement of it runs, so the
  // whole batch is retried.
  HQ_ASSIGN_OR_RETURN(std::vector<Result<cdw::ExecResult>> ran,
                      CdwRetry().RunResult<std::vector<Result<cdw::ExecResult>>>(
                          "cdw.exec",
                          [&](const common::RetryAttempt&) { return cdw_->ExecBatch(batch); }));
  result->statements_issued += ran.size();
  return Pending(std::make_move_iterator(ran.begin()), std::make_move_iterator(ran.end()));
}

std::string AdaptiveDmlApplier::IdentifyErrorField(uint64_t row, DmlApplyResult* result) {
  if (auto settled = error_fields_.find(row); settled != error_fields_.end()) {
    return settled->second;
  }
  // Only the INSERT form maps select items one to one onto target columns.
  if (!PlainInsert()) return "";
  auto bound = Bind(row, row);
  if (!bound.ok()) return "";
  const auto& insert = static_cast<const sql::InsertStmt&>(**bound);
  auto items = ModelItems(insert);
  if (!items.ok()) return "";
  const sql::SelectStmt& select = *insert.select;

  // One probe answers for every modelled item that can fail:
  // SELECT <fails_i>, <fails_j>, ... FROM staging S WHERE <row>.
  std::vector<bool> fails(items->size(), false);
  std::vector<size_t> probed;
  sql::SelectStmt model_probe = StagingQuery(select);
  for (size_t i = 0; i < items->size(); ++i) {
    if (!(*items)[i].fails) continue;
    probed.push_back(i);
    model_probe.items.push_back({std::move((*items)[i].fails), ""});
  }
  if (!probed.empty()) {
    auto answer = ExecSql(sql::PrintStatement(model_probe), result);
    if (answer.ok() && answer->rows.size() == 1) {
      for (size_t k = 0; k < probed.size(); ++k) {
        const Value& v = answer->rows[0][k];
        fails[probed[k]] = v.is_boolean() && v.boolean();
      }
    }
  }
  // The first failing column in target order; an item the model does not
  // recognise is probed by evaluating its expression.
  for (size_t i = 0; i < items->size(); ++i) {
    const ItemModel& item = (*items)[i];
    if (item.modelled) {
      if (fails[i]) return item.column;
      continue;
    }
    sql::SelectStmt probe = StagingQuery(select);
    probe.items.push_back({select.items[i].expr->Clone(), ""});
    auto probed_expr = ExecSql(sql::PrintStatement(probe), result);
    if (!probed_expr.ok() && IsAbsorbableFailure(probed_expr.status())) return item.column;
  }
  return "";
}

Status AdaptiveDmlApplier::RecordSingletonError(uint64_t row, const Status& failure,
                                                DmlApplyResult* result) {
  if (failure.IsConstraintViolation()) {
    // Uniqueness violation: copy the staging tuple into the UV table with
    // SEQNO and the legacy error code (Figure 5c).
    std::string select_cols;
    for (const auto& f : layout_.fields()) {
      if (!select_cols.empty()) select_cols += ", ";
      select_cols += "CAST(S." + f.name + " AS VARCHAR(" +
                     std::to_string(f.type.length > 0 ? f.type.length : 64) + "))";
    }
    std::string sql_text =
        "INSERT INTO " + uv_table_ + " SELECT " + select_cols + ", S." + kRowNumColumn + ", " +
        std::to_string(legacy::kErrUniquenessViolation) + " FROM " + staging_table_ +
        " S WHERE S." + kRowNumColumn + " = " + std::to_string(row);
    ++result->statements_issued;
    HQ_RETURN_NOT_OK(ExecSql(sql_text, result).status());
    ++result->uv_errors;
    return Status::OK();
  }
  // Transformation error: Figure 6 shape.
  const bool is_date = failure.message().find("DATE conversion") != std::string::npos;
  EtRow et;
  et.code = is_date ? legacy::kErrDateConversionDml : legacy::kErrFormatViolation;
  et.field = IdentifyErrorField(row, result);
  et.message = (is_date ? std::string("DATE conversion failed") : failure.message()) +
               " during DML on " + target_table_ + ", row number: " + std::to_string(row);
  et_rows_.push_back(std::move(et));
  ++result->et_errors;
  return Status::OK();
}

void AdaptiveDmlApplier::RecordRangeError(uint64_t first, uint64_t last,
                                          DmlApplyResult* result) {
  et_rows_.push_back({legacy::kErrMaxErrorsReached, "",
                      "Max number of errors reached during DML on " + target_table_ +
                          ", row numbers: (" + std::to_string(first) + ", " +
                          std::to_string(last) + ")"});
  ++result->et_errors;
  ++result->range_errors;
}

}  // namespace hyperq::core
