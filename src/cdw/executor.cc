#include "cdw/executor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <span>

#include "cdw/compiled_expr.h"
#include "cdw/join_dml.h"
#include "cdw/statement_workers.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace hyperq::cdw {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;
using sql::ExprKind;
using sql::SelectStmt;
using types::Row;
using types::Schema;
using types::TypeDesc;
using types::Value;

namespace {

/// Resolves a table reference to the table and the alias it is visible under.
Result<ScanBinding> BindSource(Catalog* catalog, const sql::TableRef& ref,
                               std::vector<TablePtr>* held) {
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(ref.name));
  held->push_back(table);
  return ScanBinding{ref.alias.empty() ? ref.name : ref.alias, table.get()};
}

/// Compiles each expression of a list against the same bindings.
std::vector<CompiledExpr> CompileAll(const std::vector<sql::ExprPtr>& exprs,
                                     std::span<const ScanBinding> bindings) {
  std::vector<CompiledExpr> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.push_back(CompiledExpr::Compile(*e, bindings));
  return out;
}

/// Appends column `name`'s index to `columns`: NotFound if the table has no
/// such column, Invalid if `columns` already holds it.
Status AddColumn(const Table& table, const std::string& name, std::vector<size_t>* columns) {
  HQ_ASSIGN_OR_RETURN(size_t idx, table.schema().RequireFieldIndex(name));
  if (std::find(columns->begin(), columns->end(), idx) != columns->end()) {
    return Status::Invalid("column " + name + " is listed more than once");
  }
  columns->push_back(idx);
  return Status::OK();
}

/// A write that updates `columns` (table column indexes) of the rows
/// StageUpdate stages.
TableWrite UpdateWrite(const std::vector<size_t>& columns) {
  TableWrite write;
  write.assigned = columns;
  write.assigned_values.resize(columns.size());
  return write;
}

/// Stages the SET values of stored row `row`: `values[i]`, evaluated at
/// combined row `rows`, is cast to the type of column write->assigned[i] and
/// checked against NOT NULL. Only the assigned cells are staged.
Status StageUpdate(const Table& table, size_t row, const std::vector<CompiledExpr>& values,
                   const size_t* rows, TableWrite* write) {
  for (size_t i = 0; i < values.size(); ++i) {
    HQ_ASSIGN_OR_RETURN(const Value* v, values[i].Eval(rows));
    const types::Field& field = table.schema().field(write->assigned[i]);
    HQ_ASSIGN_OR_RETURN(Value coerced, types::CastValue(*v, field.type));
    if (coerced.is_null() && !field.nullable) {
      return Status::ConversionError("NULL value in NOT NULL column " + field.name);
    }
    write->assigned_values[i].push_back(std::move(coerced));
  }
  write->updated_rows.push_back(row);
  return Status::OK();
}

/// Uniqueness emulation: verifies the declared unique PK over the stored
/// keys and the key tuples `write` stages, those of its updated rows first,
/// then those of its appended rows. The stored keys of the rows it rewrites
/// don't count as conflicts. Aborts with a chunk-level ConstraintViolation,
/// no tuple identified.
Status CheckUniqueness(const Table& table, const TableWrite& write) {
  if (!table.unique_primary() || table.primary_key_indexes().empty()) return Status::OK();
  std::map<Row, size_t, RowLess> freed;
  std::vector<Row> staged_keys;
  for (size_t u = 0; u < write.updated_rows.size(); ++u) {
    const size_t r = write.updated_rows[u];
    ++freed[table.KeyOf([&](size_t c) { return table.At(r, c); })];
    staged_keys.push_back(table.KeyOf([&](size_t c) {
      auto it = std::find(write.assigned.begin(), write.assigned.end(), c);
      return it == write.assigned.end() ? table.At(r, c)
                                        : write.assigned_values[it - write.assigned.begin()][u];
    }));
  }
  for (size_t r = 0; r < write.appended_rows(); ++r) {
    staged_keys.push_back(table.KeyOf([&](size_t c) { return write.appended[c][r]; }));
  }
  std::set<Row, RowLess> seen;
  for (Row& key : staged_keys) {
    bool key_has_null = false;
    for (const auto& v : key) key_has_null |= v.is_null();
    if (key_has_null) continue;  // NULL keys never collide (SQL semantics)
    size_t stored = table.PrimaryKeyCount(key);
    auto it = freed.find(key);
    if (it != freed.end()) stored -= std::min(stored, it->second);
    if (stored != 0 || !seen.insert(std::move(key)).second) {
      return Status::ConstraintViolation("duplicate unique primary key in table " + table.name());
    }
  }
  return Status::OK();
}

/// Commits a statement's staged write, checked first against the declared
/// unique key when the caller asks for the emulation, and reports its row
/// counts.
Result<ExecResult> CommitWrite(Table* table, TableWrite write, const ExecOptions& options) {
  if (options.enforce_unique_primary) HQ_RETURN_NOT_OK(CheckUniqueness(*table, write));
  ExecResult result;
  result.rows_inserted = write.appended_rows();
  result.rows_updated = write.updated_rows.size();
  result.rows_deleted = write.removed_rows.size();
  HQ_RETURN_NOT_OK(table->Commit(std::move(write)));
  return result;
}

/// Compiles SET values in assignment order.
std::vector<CompiledExpr> CompileAssignments(const std::vector<sql::Assignment>& assignments,
                                             std::span<const ScanBinding> bindings) {
  std::vector<CompiledExpr> out;
  out.reserve(assignments.size());
  for (const auto& a : assignments) out.push_back(CompiledExpr::Compile(*a.value, bindings));
  return out;
}

}  // namespace

/// Stages the rows of an INSERT, or of a MERGE's WHEN NOT MATCHED, as the
/// appended columns of a TableWrite. The column list is resolved once. Each
/// row's value count is checked first, then the list (its first unknown or
/// repeated name fails the first staged row, so a statement that inserts no
/// row still succeeds), then every target column in table order is cast and
/// checked against NOT NULL. NOTE: the messages intentionally carry no row
/// identification — cloud warehouses report bulk failures at statement
/// granularity.
class Executor::InsertStager {
 public:
  InsertStager(const Table& table, const std::vector<std::string>& columns, TableWrite* write)
      : table_(table), value_count_(columns.empty() ? table.num_columns() : columns.size()),
        has_list_(!columns.empty()), columns_(write->appended) {
    std::vector<size_t> listed;
    for (const auto& name : columns) {
      list_error_ = AddColumn(table, name, &listed);
      if (!list_error_.ok()) break;
    }
    source_.resize(table.num_columns());
    for (size_t c = 0; c < source_.size(); ++c) source_[c] = has_list_ ? kAbsent : c;
    for (size_t i = 0; i < listed.size(); ++i) source_[listed[i]] = i;
    columns_.resize(table.num_columns());
  }

  /// Stages one row: values[i] is the i-th listed column's value (the i-th
  /// table column's without a list). An absent column is NULL.
  Status Stage(std::span<const Value* const> values) {
    if (values.size() != value_count_) {
      return Status::Invalid(has_list_ ? "value count does not match column list"
                                       : "value count does not match column count of " +
                                             table_.name());
    }
    HQ_RETURN_NOT_OK(list_error_);
    for (size_t c = 0; c < columns_.size(); ++c) {
      const types::Field& field = table_.schema().field(c);
      Value v;
      if (source_[c] != kAbsent) {
        HQ_ASSIGN_OR_RETURN(v, types::CastValue(*values[source_[c]], field.type));
      }
      if (v.is_null() && !field.nullable) {
        return Status::ConversionError("NULL value in NOT NULL column " + field.name + " of " +
                                       table_.name());
      }
      columns_[c].push_back(std::move(v));
    }
    return Status::OK();
  }

  void Reserve(size_t rows) {
    for (auto& column : columns_) column.reserve(rows);
  }

  /// A stager of the same statement into `write`, with room for `rows`
  /// rows: one morsel's segment.
  InsertStager(const InsertStager& like, TableWrite* write, size_t rows)
      : table_(like.table_), value_count_(like.value_count_), has_list_(like.has_list_),
        list_error_(like.list_error_), source_(like.source_), columns_(write->appended) {
    columns_.resize(table_.num_columns());
    for (auto& column : columns_) column.reserve(rows);
  }

  /// Replaces the staged columns with `segments` (morsel segments staged by
  /// stagers made from this one) concatenated in order.
  void Adopt(std::vector<std::vector<std::vector<Value>>> segments) {
    columns_ = ConcatColumns(std::move(segments), columns_.size());
  }

 private:
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  const Table& table_;
  const size_t value_count_;
  const bool has_list_;
  Status list_error_;
  /// For each table column, the index of the value that feeds it.
  std::vector<size_t> source_;
  std::vector<std::vector<Value>>& columns_;
};

Result<ExecResult> Executor::Execute(const sql::Statement& stmt, const ExecOptions& options) {
  rows_scanned_ = 0;
  Result<ExecResult> result = Dispatch(stmt, options);
  if (result.ok()) result->rows_scanned = rows_scanned_;
  return result;
}

Result<ExecResult> Executor::Dispatch(const sql::Statement& stmt, const ExecOptions& options) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(static_cast<const SelectStmt&>(stmt));
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(stmt), options);
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStmt&>(stmt), options);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(stmt));
    case sql::StatementKind::kMerge:
      return ExecuteMerge(static_cast<const sql::MergeStmt&>(stmt), options);
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const sql::CreateTableStmt&>(stmt));
    case sql::StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const sql::DropTableStmt&>(stmt));
  }
  return Status::Internal("unknown statement kind");
}

Result<ExecResult> Executor::ExecuteSql(std::string_view sql, const ExecOptions& options) {
  rows_scanned_ = 0;
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  return Execute(*stmt, options);
}

// --- SELECT -----------------------------------------------------------------

namespace {

/// Static output-type inference; falls back to VARCHAR for computed items.
TypeDesc InferItemType(const sql::Expr& expr, std::span<const ScanBinding> sources) {
  if (expr.kind == ExprKind::kColumnRef) {
    const auto& col = static_cast<const sql::ColumnRefExpr&>(expr);
    for (const auto& src : sources) {
      if (!col.table.empty() && !EqualsIgnoreCase(src.alias, col.table)) continue;
      int idx = src.table->schema().FieldIndex(col.column);
      if (idx >= 0) return src.table->schema().field(static_cast<size_t>(idx)).type;
    }
  }
  if (expr.kind == ExprKind::kCast) {
    return static_cast<const sql::CastExpr&>(expr).target;
  }
  if (expr.kind == ExprKind::kFunction) {
    const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
    if (EqualsIgnoreCase(fn.name, "COUNT")) return TypeDesc::Int64();
    if (EqualsIgnoreCase(fn.name, "TO_DATE") || EqualsIgnoreCase(fn.name, "TRY_TO_DATE")) {
      return TypeDesc::Date();
    }
    if (EqualsIgnoreCase(fn.name, "LENGTH") || EqualsIgnoreCase(fn.name, "POSITION")) {
      return TypeDesc::Int64();
    }
  }
  if (expr.kind == ExprKind::kLiteral) {
    const Value& v = static_cast<const sql::LiteralExpr&>(expr).value;
    if (v.is_int()) return TypeDesc::Int64();
    if (v.is_float()) return TypeDesc::Float64();
    if (v.is_date()) return TypeDesc::Date();
    if (v.is_boolean()) return TypeDesc::Boolean();
  }
  return TypeDesc::Varchar(0);
}

std::string ItemName(const sql::Expr& expr, const std::string& alias, size_t index) {
  if (!alias.empty()) return alias;
  if (expr.kind == ExprKind::kColumnRef) {
    return static_cast<const sql::ColumnRefExpr&>(expr).column;
  }
  return "EXPR_" + std::to_string(index + 1);
}

/// DISTINCT / ORDER BY / LIMIT tail of every SELECT.
Status FinishSelect(const SelectStmt& stmt, ExecResult* result_out) {
  ExecResult& result = *result_out;
  if (stmt.distinct) {
    std::set<Row, RowLess> seen;
    std::vector<Row> unique;
    for (auto& row : result.rows) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    result.rows = std::move(unique);
  }

  if (!stmt.order_by.empty()) {
    // Evaluate sort keys; order keys computed against the *output* row when
    // the expression is a plain output column, otherwise re-evaluated is not
    // possible post-projection — we map output-name references; positional
    // literals (ORDER BY 1) also supported.
    struct Keyed {
      Row keys;
      Row row;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(result.rows.size());
    for (auto& row : result.rows) {
      Row keys;
      for (const auto& o : stmt.order_by) {
        if (o.expr->kind == ExprKind::kLiteral) {
          const Value& v = static_cast<const sql::LiteralExpr&>(*o.expr).value;
          if (v.is_int() && v.int_value() >= 1 &&
              v.int_value() <= static_cast<int64_t>(row.size())) {
            keys.push_back(row[static_cast<size_t>(v.int_value() - 1)]);
            continue;
          }
        }
        if (o.expr->kind == ExprKind::kColumnRef) {
          const auto& col = static_cast<const sql::ColumnRefExpr&>(*o.expr);
          int idx = result.schema.FieldIndex(col.column);
          if (idx >= 0) {
            keys.push_back(row[static_cast<size_t>(idx)]);
            continue;
          }
        }
        return Status::NotImplemented(
            "ORDER BY expression must be an output column or position");
      }
      keyed.push_back(Keyed{std::move(keys), std::move(row)});
    }
    std::stable_sort(keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        int c = a.keys[i].Compare(b.keys[i]);
        if (c != 0) return stmt.order_by[i].descending ? c > 0 : c < 0;
      }
      return false;
    });
    result.rows.clear();
    for (auto& k : keyed) result.rows.push_back(std::move(k.row));
  }

  if (stmt.top >= 0 && result.rows.size() > static_cast<size_t>(stmt.top)) {
    result.rows.resize(static_cast<size_t>(stmt.top));
  }
  return Status::OK();
}

/// A SELECT compiled against its bound sources. Evaluation keeps its
/// results in the compiled nodes, so every thread that evaluates a SELECT
/// compiles its own.
struct CompiledSelect {
  std::vector<CompiledExpr> items;  ///< stars expanded into column references
  std::vector<CompiledExpr> ons;    ///< JOIN j's ON sees sources 0..j+1 only
  CompiledExpr where;
};

/// Compiles `stmt` against `sources`, with aggregating items when `grouped`,
/// and adds each item's output field to `schema` when it is not null. A star
/// expands into one column reference per column of every source.
CompiledSelect CompileSelect(const SelectStmt& stmt, std::span<const ScanBinding> sources,
                             bool grouped, Schema* schema) {
  CompiledSelect out;
  auto add_item = [&](const sql::Expr& expr, const std::string& alias) {
    if (schema != nullptr) {
      schema->AddField(
          types::Field(ItemName(expr, alias, out.items.size()), InferItemType(expr, sources)));
    }
    out.items.push_back(grouped ? CompiledExpr::CompileGrouped(expr, sources)
                                : CompiledExpr::Compile(expr, sources));
  };
  for (const auto& item : stmt.items) {
    if (item.expr->kind != ExprKind::kStar) {
      add_item(*item.expr, item.alias);
      continue;
    }
    for (const auto& src : sources) {
      for (const auto& f : src.table->schema().fields()) {
        add_item(sql::ColumnRefExpr(src.alias, f.name), f.name);
      }
    }
  }
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    out.ons.push_back(
        CompiledExpr::CompilePredicate(stmt.joins[j].on.get(), sources.first(j + 2)));
  }
  out.where = CompiledExpr::CompilePredicate(stmt.where.get(), sources);
  return out;
}

/// The projection of a non-aggregating SELECT at combined row `rows`:
/// `values` holds the row's cells, valid until the items are evaluated
/// again.
Status Project(const CompiledSelect& select, const size_t* rows,
               std::vector<const Value*>* values) {
  values->clear();
  for (const CompiledExpr& item : select.items) {
    HQ_ASSIGN_OR_RETURN(const Value* v, item.Eval(rows));
    values->push_back(v);
  }
  return Status::OK();
}

}  // namespace

Result<ExecResult> Executor::ExecuteSelect(const SelectStmt& stmt, InsertStager* sink) {
  // FROM-less SELECT: evaluate items once against no table.
  std::vector<TablePtr> held;
  std::vector<ScanBinding> sources;
  if (stmt.has_from) {
    HQ_ASSIGN_OR_RETURN(ScanBinding src, BindSource(catalog_, stmt.from, &held));
    sources.push_back(std::move(src));
    for (const auto& join : stmt.joins) {
      HQ_ASSIGN_OR_RETURN(ScanBinding jsrc, BindSource(catalog_, join.table, &held));
      sources.push_back(std::move(jsrc));
    }
  }

  ExecResult result;
  bool has_aggregates = !stmt.group_by.empty();
  for (const auto& item : stmt.items) has_aggregates |= ContainsAggregate(*item.expr);
  for (const auto& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar && sources.empty()) {
      return Status::Invalid("SELECT * requires a FROM clause");
    }
  }
  const CompiledSelect select = CompileSelect(stmt, sources, has_aggregates, &result.schema);

  // An INSERT…SELECT stages each row as it is projected, unless the SELECT
  // needs its whole result first (aggregates, DISTINCT, ORDER BY, TOP). The
  // first row that fails to stage keeps its error and ends the staging, but
  // the SELECT runs on: an error it raises in a later row wins.
  const bool streamed = sink != nullptr && !has_aggregates && !stmt.distinct &&
                        stmt.order_by.empty() && stmt.top < 0;
  if (streamed && sources.size() == 1 && workers_ != nullptr && workers_->workers() > 1 &&
      (sources[0].table->num_rows() + kMorselRows - 1) / kMorselRows >= kMinParallelParts) {
    HQ_RETURN_NOT_OK(StageMorsels(stmt, sources, sink));
    return result;
  }
  // Without WHERE, a single-source SELECT stages every row of its source.
  if (streamed && sources.size() == 1 && stmt.where == nullptr) {
    sink->Reserve(sources[0].table->num_rows());
  }
  Status stage_error;

  // One loop over the join tree, depth first in FROM/JOIN order, reading
  // rows in place: `rows` holds one row index per source. A combined row is
  // checked against its ONs while it is built, then WHERE, then projected;
  // with aggregates its index tuple is kept for grouping instead. The last
  // source's loop is flat, so a single-source SELECT is one loop, and a
  // FROM-less SELECT is the one empty tuple.
  std::vector<size_t> rows(sources.size());
  std::vector<const Value*> values;
  GroupRows kept;
  auto emit = [&]() -> Status {
    HQ_ASSIGN_OR_RETURN(bool keep, select.where.Test(rows.data()));
    if (!keep) return Status::OK();
    if (has_aggregates) {
      kept.push_back(rows);
      return Status::OK();
    }
    HQ_RETURN_NOT_OK(Project(select, rows.data(), &values));
    if (streamed) {
      if (stage_error.ok()) stage_error = sink->Stage(values);
      return Status::OK();
    }
    Row& out = result.rows.emplace_back();
    out.reserve(values.size());
    for (const Value* v : values) out.push_back(*v);
    return Status::OK();
  };
  auto descend = [&](auto& self, size_t level) -> Status {
    const size_t num_rows = sources[level].table->num_rows();
    const bool last = level + 1 == sources.size();
    for (size_t r = 0; r < num_rows; ++r) {
      rows[level] = r;
      ++rows_scanned_;
      if (level > 0) {
        HQ_ASSIGN_OR_RETURN(bool joined, select.ons[level - 1].Test(rows.data()));
        if (!joined) continue;
      }
      HQ_RETURN_NOT_OK(last ? emit() : self(self, level + 1));
    }
    return Status::OK();
  };
  HQ_RETURN_NOT_OK(sources.empty() ? emit() : descend(descend, 0));
  HQ_RETURN_NOT_OK(stage_error);

  if (has_aggregates) {
    std::map<Row, GroupRows, RowLess> groups;
    if (stmt.group_by.empty()) {
      groups[Row{}] = std::move(kept);
    } else {
      const std::vector<CompiledExpr> keys = CompileAll(stmt.group_by, sources);
      for (auto& combined : kept) {
        Row key;
        key.reserve(keys.size());
        for (const CompiledExpr& k : keys) {
          HQ_ASSIGN_OR_RETURN(const Value* v, k.Eval(combined.data()));
          key.push_back(*v);
        }
        groups[std::move(key)].push_back(std::move(combined));
      }
    }
    const CompiledExpr having =
        stmt.having ? CompiledExpr::CompileGrouped(*stmt.having, sources) : CompiledExpr();
    for (const auto& [key, group_rows] : groups) {
      if (stmt.having) {
        HQ_ASSIGN_OR_RETURN(const Value* h, having.EvalGroup(group_rows));
        if (!(h->is_boolean() && h->boolean())) continue;
      }
      Row out;
      out.reserve(select.items.size());
      for (const CompiledExpr& item : select.items) {
        HQ_ASSIGN_OR_RETURN(const Value* v, item.EvalGroup(group_rows));
        out.push_back(*v);
      }
      result.rows.push_back(std::move(out));
    }
  }

  HQ_RETURN_NOT_OK(FinishSelect(stmt, &result));
  if (sink == nullptr || streamed) return result;
  // A SELECT that needed its whole result stages it now; a staged row is
  // released at once, so the result and the staged columns never both hold
  // every cell.
  sink->Reserve(result.rows.size());
  for (Row& row : result.rows) {
    values.clear();
    for (const Value& v : row) values.push_back(&v);
    HQ_RETURN_NOT_OK(sink->Stage(values));
    Row().swap(row);
  }
  return result;
}

Status Executor::StageMorsels(const SelectStmt& stmt, std::span<const ScanBinding> sources,
                              InsertStager* sink) {
  // Each morsel evaluates its rows with its own compiled SELECT and stages
  // them into its own segment, and keeps its first SELECT error and its
  // first staging error. Morsel order is row order, so the statement's
  // error is that of the lowest morsel with a SELECT error, else of the
  // lowest one with a staging error, exactly as the serial loop finds it.
  struct Morsel {
    TableWrite segment;
    size_t scanned = 0;
    Status select_error;
    Status stage_error;
  };
  const size_t num_rows = sources[0].table->num_rows();
  std::vector<Morsel> morsels((num_rows + kMorselRows - 1) / kMorselRows);
  std::atomic<size_t> first_select_error{morsels.size()};
  std::atomic<size_t> first_stage_error{morsels.size()};
  workers_->ForEach(morsels.size(), [&](size_t m) {
    // Past the lowest SELECT error nothing can change the outcome, and past
    // the lowest staging error only a SELECT error can, so such a morsel
    // only evaluates its rows.
    if (m > first_select_error.load(std::memory_order_relaxed)) return;
    bool staging = m <= first_stage_error.load(std::memory_order_relaxed);
    Morsel& morsel = morsels[m];
    const CompiledSelect select = CompileSelect(stmt, sources, /*grouped=*/false, nullptr);
    const size_t end = std::min(num_rows, (m + 1) * kMorselRows);
    InsertStager stager(*sink, &morsel.segment, end - m * kMorselRows);
    std::vector<const Value*> values;
    for (size_t r = m * kMorselRows; r < end; ++r) {
      ++morsel.scanned;
      Result<bool> keep = select.where.Test(&r);
      Status projected = keep.ok() && *keep ? Project(select, &r, &values) : keep.status();
      if (!projected.ok()) {
        morsel.select_error = std::move(projected);
        LowerTo(&first_select_error, m);
        return;
      }
      if (!*keep || !staging) continue;
      morsel.stage_error = stager.Stage(values);
      if (!morsel.stage_error.ok()) {
        staging = false;
        LowerTo(&first_stage_error, m);
      }
    }
  });
  // The serial loop stops at its first SELECT error, so it scans up to and
  // including that row.
  const size_t failed = first_select_error.load(std::memory_order_relaxed);
  if (failed < morsels.size()) {
    rows_scanned_ += failed * kMorselRows + morsels[failed].scanned;
    return morsels[failed].select_error;
  }
  rows_scanned_ += num_rows;
  const size_t stage_failed = first_stage_error.load(std::memory_order_relaxed);
  if (stage_failed < morsels.size()) return morsels[stage_failed].stage_error;
  std::vector<std::vector<std::vector<Value>>> segments;
  segments.reserve(morsels.size());
  for (Morsel& morsel : morsels) segments.push_back(std::move(morsel.segment.appended));
  sink->Adopt(std::move(segments));
  return Status::OK();
}

// --- INSERT -----------------------------------------------------------------

Result<ExecResult> Executor::ExecuteInsert(const sql::InsertStmt& stmt,
                                           const ExecOptions& options) {
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table));
  TableWrite write;
  InsertStager stager(*table, stmt.columns, &write);
  if (stmt.select) {
    HQ_RETURN_NOT_OK(ExecuteSelect(*stmt.select, &stager).status());
  } else {
    std::vector<const Value*> values;
    for (const auto& exprs : stmt.rows) {
      const std::vector<CompiledExpr> row = CompileAll(exprs, {});
      values.clear();
      for (const CompiledExpr& e : row) {
        HQ_ASSIGN_OR_RETURN(const Value* v, e.Eval(nullptr));
        values.push_back(v);
      }
      HQ_RETURN_NOT_OK(stager.Stage(values));
    }
  }
  return CommitWrite(table.get(), std::move(write), options);
}

// --- UPDATE -----------------------------------------------------------------

Result<ExecResult> Executor::ExecuteUpdate(const sql::UpdateStmt& stmt,
                                           const ExecOptions& options) {
  if (stmt.has_else_insert) {
    return Status::NotImplemented(
        "UPDATE ... ELSE INSERT is a legacy-EDW construct the CDW does not support (requires "
        "Hyper-Q transpilation into MERGE)");
  }
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table.name));
  std::string target_alias = stmt.table.alias.empty() ? stmt.table.name : stmt.table.alias;

  TablePtr from_table;
  std::string from_alias;
  if (stmt.has_from) {
    HQ_ASSIGN_OR_RETURN(from_table, catalog_->GetTable(stmt.from.name));
    from_alias = stmt.from.alias.empty() ? stmt.from.name : stmt.from.alias;
  }

  std::vector<size_t> assign_cols;
  for (const auto& a : stmt.assignments) {
    HQ_RETURN_NOT_OK(AddColumn(*table, a.column, &assign_cols));
  }

  // With FROM, `matcher` pairs each target row with its first matching
  // source row; without, the WHERE sees the target row alone. SET values
  // see the target row, then the source row.
  std::vector<ScanBinding> bindings{{target_alias, table.get()}};
  if (from_table) bindings.push_back({from_alias, from_table.get()});
  const std::vector<CompiledExpr> values = CompileAssignments(stmt.assignments, bindings);
  const CompiledExpr where =
      from_table ? CompiledExpr() : CompiledExpr::CompilePredicate(stmt.where.get(), bindings);
  auto run = [&](JoinMatcher* matcher) -> Result<ExecResult> {
    TableWrite write = UpdateWrite(assign_cols);
    size_t rows[2] = {0, 0};
    for (size_t r = 0; r < table->num_rows(); ++r) {
      rows[0] = r;
      ++rows_scanned_;
      if (matcher != nullptr) {
        HQ_ASSIGN_OR_RETURN(JoinMatch match, matcher->Match(r, /*want_unique=*/false));
        if (match.row < 0) continue;
        rows[1] = static_cast<size_t>(match.row);
      } else {
        HQ_ASSIGN_OR_RETURN(bool ok, where.Test(rows));
        if (!ok) continue;
      }
      HQ_RETURN_NOT_OK(StageUpdate(*table, r, values, rows, &write));
    }
    return CommitWrite(table.get(), std::move(write), options);
  };
  if (!from_table) return run(nullptr);
  JoinSides sides{table.get(), target_alias, from_table.get(), from_alias, stmt.where.get(),
                  /*drive_source=*/false};
  return RunJoinDml(sides, hash_join_, &rows_scanned_,
                    [&](JoinMatcher& matcher) { return run(&matcher); });
}

// --- DELETE -----------------------------------------------------------------

Result<ExecResult> Executor::ExecuteDelete(const sql::DeleteStmt& stmt) {
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table.name));
  std::string target_alias = stmt.table.alias.empty() ? stmt.table.name : stmt.table.alias;

  TablePtr using_table;
  std::string using_alias;
  if (stmt.has_using) {
    HQ_ASSIGN_OR_RETURN(using_table, catalog_->GetTable(stmt.using_table.name));
    using_alias = stmt.using_table.alias.empty() ? stmt.using_table.name : stmt.using_table.alias;
  }

  // With USING, a target row goes when `matcher` pairs it with any source
  // row; without, when the WHERE holds on it alone.
  const ScanBinding target{target_alias, table.get()};
  const CompiledExpr where =
      using_table ? CompiledExpr()
                  : CompiledExpr::CompilePredicate(stmt.where.get(), std::span(&target, 1));
  auto run = [&](JoinMatcher* matcher) -> Result<ExecResult> {
    TableWrite write;
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ++rows_scanned_;
      bool matched = false;
      if (matcher != nullptr) {
        HQ_ASSIGN_OR_RETURN(JoinMatch match, matcher->Match(r, /*want_unique=*/false));
        matched = match.row >= 0;
      } else {
        HQ_ASSIGN_OR_RETURN(matched, where.Test(&r));
      }
      if (matched) write.removed_rows.push_back(r);
    }
    return CommitWrite(table.get(), std::move(write), ExecOptions{});
  };
  if (!using_table) return run(nullptr);
  JoinSides sides{table.get(), target_alias, using_table.get(), using_alias, stmt.where.get(),
                  /*drive_source=*/false};
  return RunJoinDml(sides, hash_join_, &rows_scanned_,
                    [&](JoinMatcher& matcher) { return run(&matcher); });
}

// --- MERGE ------------------------------------------------------------------

Result<ExecResult> Executor::ExecuteMerge(const sql::MergeStmt& stmt, const ExecOptions& options) {
  HQ_ASSIGN_OR_RETURN(TablePtr target, catalog_->GetTable(stmt.target.name));
  HQ_ASSIGN_OR_RETURN(TablePtr source, catalog_->GetTable(stmt.source.name));
  std::string target_alias = stmt.target.alias.empty() ? stmt.target.name : stmt.target.alias;
  std::string source_alias = stmt.source.alias.empty() ? stmt.source.name : stmt.source.alias;

  std::vector<size_t> update_cols;
  for (const auto& a : stmt.matched_update) {
    HQ_RETURN_NOT_OK(AddColumn(*target, a.column, &update_cols));
  }

  // The filter and WHEN NOT MATCHED see the source row; WHEN MATCHED sees
  // the target row, then the source row.
  const std::vector<ScanBinding> pair{{target_alias, target.get()}, {source_alias, source.get()}};
  const std::span<const ScanBinding> source_only = std::span(pair).last(1);
  const CompiledExpr filter =
      CompiledExpr::CompilePredicate(stmt.source_filter.get(), source_only);
  const std::vector<CompiledExpr> update_values = CompileAssignments(stmt.matched_update, pair);
  const std::vector<CompiledExpr> insert_values = CompileAll(stmt.insert_values, source_only);

  // The matcher pairs source rows with the pre-statement target: nothing is
  // written until every source row has been matched.
  JoinSides sides{target.get(), target_alias, source.get(), source_alias, stmt.on.get(),
                  /*drive_source=*/true};
  return RunJoinDml(sides, hash_join_, &rows_scanned_,
                    [&](JoinMatcher& matcher) -> Result<ExecResult> {
    TableWrite write = UpdateWrite(update_cols);
    InsertStager inserts(*target, stmt.insert_columns, &write);
    std::vector<const Value*> values;
    size_t pair_rows[2] = {0, 0};  // target row, source row

    for (size_t s = 0; s < source->num_rows(); ++s) {
      ++rows_scanned_;
      HQ_ASSIGN_OR_RETURN(bool pass, filter.Test(&s));
      if (!pass) continue;
      HQ_ASSIGN_OR_RETURN(JoinMatch match, matcher.Match(s, /*want_unique=*/true));
      if (match.multiple) return Status::Invalid("MERGE source row matches multiple target rows");
      if (match.row >= 0) {
        if (stmt.matched_update.empty()) continue;
        const auto matched_target = static_cast<size_t>(match.row);
        pair_rows[0] = matched_target;
        pair_rows[1] = s;
        HQ_RETURN_NOT_OK(
            StageUpdate(*target, matched_target, update_values, pair_rows, &write));
      } else {
        if (insert_values.empty()) continue;
        values.clear();
        for (const CompiledExpr& e : insert_values) {
          HQ_ASSIGN_OR_RETURN(const Value* v, e.Eval(&s));
          values.push_back(v);
        }
        HQ_RETURN_NOT_OK(inserts.Stage(values));
      }
    }

    return CommitWrite(target.get(), std::move(write), options);
  });
}

// --- DDL --------------------------------------------------------------------

Result<ExecResult> Executor::ExecuteCreateTable(const sql::CreateTableStmt& stmt) {
  HQ_RETURN_NOT_OK(catalog_
                       ->CreateTable(stmt.table, stmt.schema, stmt.primary_key,
                                     stmt.unique_primary, stmt.if_not_exists)
                       .status());
  return ExecResult{};
}

Result<ExecResult> Executor::ExecuteDropTable(const sql::DropTableStmt& stmt) {
  HQ_RETURN_NOT_OK(catalog_->DropTable(stmt.table, stmt.if_exists));
  return ExecResult{};
}

Result<ExecResult> ExecuteOnNestedLoop(Catalog* catalog, const sql::Statement& stmt,
                                       const ExecOptions& options) {
  Executor executor(catalog);
  executor.hash_join_ = false;
  return executor.Execute(stmt, options);
}

}  // namespace hyperq::cdw
