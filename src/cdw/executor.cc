#include "cdw/executor.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "cdw/join_dml.h"
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

/// A scan source: table plus the alias it is visible under.
struct Source {
  std::string alias;
  TablePtr table;
};

Result<Source> BindSource(Catalog* catalog, const sql::TableRef& ref) {
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(ref.name));
  Source src;
  src.alias = ref.alias.empty() ? ref.name : ref.alias;
  src.table = std::move(table);
  return src;
}

/// Binds an EvalContext to a combined row given as one row index per
/// source, in order; a shorter tuple binds only the leading sources.
EvalContext MakeContext(const std::vector<Source>& sources, const std::vector<size_t>& rows) {
  EvalContext ctx;
  for (size_t i = 0; i < rows.size(); ++i) {
    ctx.AddBinding(sources[i].alias, sources[i].table.get(), rows[i]);
  }
  return ctx;
}

/// Validates + coerces a row against a table schema (set-oriented: any error
/// aborts the caller's statement). NOTE: the error message intentionally
/// carries no row identification — cloud warehouses report bulk failures at
/// statement granularity.
Result<Row> CoerceRowToTable(const Table& table, const Row& row) {
  if (row.size() != table.schema().num_fields()) {
    return Status::Invalid("value count does not match column count of " + table.name());
  }
  Row out;
  out.reserve(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    const types::Field& field = table.schema().field(c);
    HQ_ASSIGN_OR_RETURN(Value v, types::CastValue(row[c], field.type));
    if (v.is_null() && !field.nullable) {
      return Status::ConversionError("NULL value in NOT NULL column " + field.name + " of " +
                                     table.name());
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// Reorders an insert row according to an explicit column list; absent
/// columns become NULL.
Result<Row> ApplyColumnList(const Table& table, const std::vector<std::string>& columns,
                            Row values) {
  if (columns.empty()) return values;
  if (values.size() != columns.size()) {
    return Status::Invalid("value count does not match column list");
  }
  Row out(table.schema().num_fields(), Value::Null());
  for (size_t i = 0; i < columns.size(); ++i) {
    HQ_ASSIGN_OR_RETURN(size_t idx, table.schema().RequireFieldIndex(columns[i]));
    out[idx] = std::move(values[i]);
  }
  return out;
}

/// Uniqueness emulation: verifies declared unique PK over existing + staged
/// rows. Aborts with a chunk-level ConstraintViolation, no tuple identified.
Status CheckUniqueness(const Table& table, const std::vector<Row>& staged_rows,
                       const std::vector<size_t>* replaced_rows = nullptr) {
  if (!table.unique_primary() || table.primary_key_indexes().empty()) return Status::OK();
  // Keys freed by rows this statement is rewriting don't count as conflicts.
  std::map<Row, size_t, RowLess> freed;
  if (replaced_rows != nullptr) {
    for (size_t r : *replaced_rows) ++freed[table.KeyOf([&](size_t c) { return table.At(r, c); })];
  }
  std::set<Row, RowLess> staged_keys;
  for (const auto& row : staged_rows) {
    Row key = table.KeyOf([&](size_t c) { return row[c]; });
    bool key_has_null = false;
    for (const auto& v : key) key_has_null |= v.is_null();
    if (key_has_null) continue;  // NULL keys never collide (SQL semantics)
    size_t stored = table.PrimaryKeyCount(key);
    auto it = freed.find(key);
    if (it != freed.end()) stored -= std::min(stored, it->second);
    if (stored != 0 || !staged_keys.insert(std::move(key)).second) {
      return Status::ConstraintViolation("duplicate unique primary key in table " + table.name());
    }
  }
  return Status::OK();
}

/// A copy of stored row `row` with SET `assignments` applied: each value is
/// evaluated in `ctx`, cast to its column (`columns[i]`) type and checked
/// against NOT NULL. This copy is the staged replacement row.
Result<Row> AssignRow(const Table& table, size_t row,
                      const std::vector<sql::Assignment>& assignments,
                      const std::vector<size_t>& columns, const EvalContext& ctx) {
  Row out = table.GetRow(row);
  for (size_t i = 0; i < assignments.size(); ++i) {
    HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*assignments[i].value, ctx));
    const types::Field& field = table.schema().field(columns[i]);
    HQ_ASSIGN_OR_RETURN(Value coerced, types::CastValue(v, field.type));
    if (coerced.is_null() && !field.nullable) {
      return Status::ConversionError("NULL value in NOT NULL column " + field.name);
    }
    out[columns[i]] = std::move(coerced);
  }
  return out;
}

}  // namespace

Result<ExecResult> Executor::Execute(const sql::Statement& stmt, const ExecOptions& options) {
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
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  return Execute(*stmt, options);
}

// --- SELECT -----------------------------------------------------------------

namespace {

/// Static output-type inference; falls back to VARCHAR for computed items.
TypeDesc InferItemType(const sql::Expr& expr, const std::vector<Source>& sources) {
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
    if (EqualsIgnoreCase(fn.name, "TO_DATE")) return TypeDesc::Date();
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

std::string ItemName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const sql::ColumnRefExpr&>(*item.expr).column;
  }
  return "EXPR_" + std::to_string(index + 1);
}

/// Evaluates an expression in aggregate context: aggregate calls compute over
/// the group's combined rows (index tuples); other column refs bind to the
/// group's first row.
Result<Value> EvaluateWithAggregates(const sql::Expr& expr, const std::vector<Source>& sources,
                                     const std::vector<std::vector<size_t>>& group_rows) {
  if (expr.kind == ExprKind::kFunction) {
    const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
    if (IsAggregateFunction(fn.name)) {
      const bool is_count = EqualsIgnoreCase(fn.name, "COUNT");
      const bool count_star =
          is_count && fn.args.size() == 1 && fn.args[0]->kind == ExprKind::kStar;
      if (fn.args.size() != 1) return Status::Invalid(fn.name + " takes one argument");
      std::vector<Value> inputs;
      inputs.reserve(group_rows.size());
      std::set<Row, RowLess> distinct_seen;
      for (const auto& combined : group_rows) {
        if (count_star) {
          inputs.push_back(Value::Int(1));
          continue;
        }
        EvalContext ctx = MakeContext(sources, combined);
        HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*fn.args[0], ctx));
        if (v.is_null()) continue;  // aggregates skip NULLs
        if (fn.distinct) {
          Row key{v};
          if (!distinct_seen.insert(key).second) continue;
        }
        inputs.push_back(std::move(v));
      }
      if (is_count) return Value::Int(static_cast<int64_t>(inputs.size()));
      if (inputs.empty()) return Value::Null();
      if (EqualsIgnoreCase(fn.name, "MIN") || EqualsIgnoreCase(fn.name, "MAX")) {
        const bool want_max = EqualsIgnoreCase(fn.name, "MAX");
        Value best = inputs[0];
        for (size_t i = 1; i < inputs.size(); ++i) {
          int c = inputs[i].Compare(best);
          if ((want_max && c > 0) || (!want_max && c < 0)) best = inputs[i];
        }
        return best;
      }
      // SUM / AVG.
      double total = 0;
      bool all_int = true;
      int64_t int_total = 0;
      for (const auto& v : inputs) {
        if (v.is_int()) {
          int_total += v.int_value();
          total += static_cast<double>(v.int_value());
        } else if (v.is_float()) {
          all_int = false;
          total += v.float_value();
        } else if (v.is_decimal()) {
          all_int = false;
          total += v.decimal_value().ToDouble();
        } else {
          return Status::TypeError(fn.name + " over non-numeric values");
        }
      }
      if (EqualsIgnoreCase(fn.name, "SUM")) {
        return all_int ? Value::Int(int_total) : Value::Float(total);
      }
      return Value::Float(total / static_cast<double>(inputs.size()));
    }
    // Non-aggregate function: recurse so nested aggregates work.
    auto copy = std::make_unique<sql::FunctionExpr>();
    copy->name = fn.name;
    copy->distinct = fn.distinct;
    for (const auto& a : fn.args) {
      HQ_ASSIGN_OR_RETURN(Value v, EvaluateWithAggregates(*a, sources, group_rows));
      copy->args.push_back(std::make_unique<sql::LiteralExpr>(std::move(v)));
    }
    EvalContext empty;
    return EvaluateExpr(*copy, empty);
  }
  if (!ContainsAggregate(expr)) {
    if (group_rows.empty()) return Value::Null();
    EvalContext ctx = MakeContext(sources, group_rows[0]);
    return EvaluateExpr(expr, ctx);
  }
  // Composite expression containing aggregates: rebuild with aggregate
  // results folded in as literals. Only the composite kinds are rebuilt;
  // every leaf kind is handled by the single-row evaluation below.
  switch (expr.kind) {  // hqcheck:allow(enum-switch)
    case ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(Value v, EvaluateWithAggregates(*u.operand, sources, group_rows));
      sql::UnaryExpr lifted(u.op, std::make_unique<sql::LiteralExpr>(std::move(v)));
      EvalContext empty;
      return EvaluateExpr(lifted, empty);
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(Value l, EvaluateWithAggregates(*b.left, sources, group_rows));
      HQ_ASSIGN_OR_RETURN(Value r, EvaluateWithAggregates(*b.right, sources, group_rows));
      sql::BinaryExpr lifted(b.op, std::make_unique<sql::LiteralExpr>(std::move(l)),
                             std::make_unique<sql::LiteralExpr>(std::move(r)));
      EvalContext empty;
      return EvaluateExpr(lifted, empty);
    }
    case ExprKind::kCast: {
      const auto& c = static_cast<const sql::CastExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(Value v, EvaluateWithAggregates(*c.operand, sources, group_rows));
      sql::CastExpr lifted(std::make_unique<sql::LiteralExpr>(std::move(v)), c.target, c.format);
      EvalContext empty;
      return EvaluateExpr(lifted, empty);
    }
    default:
      return Status::NotImplemented("aggregate inside this expression form");
  }
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

}  // namespace

Result<ExecResult> Executor::ExecuteSelect(const SelectStmt& stmt) {
  // FROM-less SELECT: evaluate items once against an empty context.
  std::vector<Source> sources;
  if (stmt.has_from) {
    HQ_ASSIGN_OR_RETURN(Source src, BindSource(catalog_, stmt.from));
    sources.push_back(std::move(src));
    for (const auto& join : stmt.joins) {
      HQ_ASSIGN_OR_RETURN(Source jsrc, BindSource(catalog_, join.table));
      sources.push_back(std::move(jsrc));
    }
  }

  // Expand stars into per-column items.
  std::vector<sql::SelectItem> items;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      if (sources.empty()) return Status::Invalid("SELECT * requires a FROM clause");
      for (const auto& src : sources) {
        for (const auto& f : src.table->schema().fields()) {
          sql::SelectItem expanded;
          expanded.expr = std::make_unique<sql::ColumnRefExpr>(src.alias, f.name);
          expanded.alias = f.name;
          items.push_back(std::move(expanded));
        }
      }
    } else {
      sql::SelectItem copy;
      copy.expr = item.expr->Clone();
      copy.alias = item.alias;
      items.push_back(std::move(copy));
    }
  }

  ExecResult result;
  bool has_aggregates = !stmt.group_by.empty();
  for (const auto& item : items) has_aggregates |= ContainsAggregate(*item.expr);

  // Output schema.
  for (size_t i = 0; i < items.size(); ++i) {
    result.schema.AddField(
        types::Field(ItemName(items[i], i), InferItemType(*items[i].expr, sources)));
  }

  // One loop over the join tree, depth first in FROM/JOIN order, reading
  // rows in place. contexts[k] binds sources 0..k, so each JOIN's ON sees
  // only the tables to its left. A combined row is checked against its ONs
  // while it is built, then WHERE, then projected; with aggregates its index
  // tuple is kept for grouping instead. A FROM-less SELECT is the one empty
  // tuple.
  std::vector<EvalContext> contexts;
  for (size_t k = 0; k < sources.size(); ++k) {
    contexts.push_back(MakeContext(sources, std::vector<size_t>(k + 1)));
  }
  if (contexts.empty()) contexts.emplace_back();
  std::vector<size_t> tuple(sources.size());
  std::vector<std::vector<size_t>> kept;
  std::function<Status(size_t)> descend = [&](size_t level) -> Status {
    if (level == sources.size()) {
      const EvalContext& ctx = contexts.back();
      HQ_ASSIGN_OR_RETURN(bool keep, PredicateTrue(stmt.where.get(), ctx));
      if (!keep) return Status::OK();
      if (has_aggregates) {
        kept.push_back(tuple);
        return Status::OK();
      }
      Row out;
      out.reserve(items.size());
      for (const auto& item : items) {
        HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*item.expr, ctx));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
      return Status::OK();
    }
    for (size_t r = 0; r < sources[level].table->num_rows(); ++r) {
      tuple[level] = r;
      for (size_t k = level; k < contexts.size(); ++k) contexts[k].SetRow(level, r);
      if (level > 0) {
        const sql::Expr* on = stmt.joins[level - 1].on.get();
        HQ_ASSIGN_OR_RETURN(bool joined, PredicateTrue(on, contexts[level]));
        if (!joined) continue;
      }
      HQ_RETURN_NOT_OK(descend(level + 1));
    }
    return Status::OK();
  };
  HQ_RETURN_NOT_OK(descend(0));

  if (has_aggregates) {
    std::map<Row, std::vector<std::vector<size_t>>, RowLess> groups;
    if (stmt.group_by.empty()) {
      groups[Row{}] = std::move(kept);
    } else {
      for (auto& combined : kept) {
        EvalContext ctx = MakeContext(sources, combined);
        Row key;
        key.reserve(stmt.group_by.size());
        for (const auto& g : stmt.group_by) {
          HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*g, ctx));
          key.push_back(std::move(v));
        }
        groups[std::move(key)].push_back(std::move(combined));
      }
    }
    for (const auto& [key, group_rows] : groups) {
      if (stmt.having) {
        HQ_ASSIGN_OR_RETURN(Value h, EvaluateWithAggregates(*stmt.having, sources, group_rows));
        if (!(h.is_boolean() && h.boolean())) continue;
      }
      Row out;
      out.reserve(items.size());
      for (const auto& item : items) {
        HQ_ASSIGN_OR_RETURN(Value v, EvaluateWithAggregates(*item.expr, sources, group_rows));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
    }
  }

  HQ_RETURN_NOT_OK(FinishSelect(stmt, &result));
  return result;
}

// --- INSERT -----------------------------------------------------------------

Result<ExecResult> Executor::ExecuteInsert(const sql::InsertStmt& stmt,
                                           const ExecOptions& options) {
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table));
  std::vector<Row> staged;

  if (stmt.select) {
    HQ_ASSIGN_OR_RETURN(ExecResult select_result, ExecuteSelect(*stmt.select));
    staged.reserve(select_result.rows.size());
    for (auto& row : select_result.rows) {
      HQ_ASSIGN_OR_RETURN(Row positioned, ApplyColumnList(*table, stmt.columns, std::move(row)));
      HQ_ASSIGN_OR_RETURN(Row coerced, CoerceRowToTable(*table, positioned));
      staged.push_back(std::move(coerced));
    }
  } else {
    EvalContext empty;
    for (const auto& exprs : stmt.rows) {
      Row values;
      values.reserve(exprs.size());
      for (const auto& e : exprs) {
        HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, empty));
        values.push_back(std::move(v));
      }
      HQ_ASSIGN_OR_RETURN(Row positioned, ApplyColumnList(*table, stmt.columns, std::move(values)));
      HQ_ASSIGN_OR_RETURN(Row coerced, CoerceRowToTable(*table, positioned));
      staged.push_back(std::move(coerced));
    }
  }

  if (options.enforce_unique_primary) {
    HQ_RETURN_NOT_OK(CheckUniqueness(*table, staged));
  }
  size_t count = staged.size();
  HQ_RETURN_NOT_OK(table->AppendRows(std::move(staged)));
  ExecResult result;
  result.rows_inserted = count;
  return result;
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

  // Resolve assignment targets.
  std::vector<size_t> assign_cols;
  for (const auto& a : stmt.assignments) {
    HQ_ASSIGN_OR_RETURN(size_t idx, table->schema().RequireFieldIndex(a.column));
    assign_cols.push_back(idx);
  }

  // With FROM, `matcher` pairs each target row with its first matching
  // source row; without, the WHERE sees the target row alone.
  auto run = [&](JoinMatcher* matcher) -> Result<ExecResult> {
    // Stage: row index -> new full row.
    std::vector<std::pair<size_t, Row>> staged;
    std::vector<size_t> touched_rows;
    EvalContext ctx;
    ctx.AddBinding(target_alias, table.get(), 0);
    if (matcher != nullptr) ctx.AddBinding(from_alias, from_table.get(), 0);
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ctx.SetRow(0, r);
      if (matcher != nullptr) {
        HQ_ASSIGN_OR_RETURN(JoinMatch match, matcher->Match(r, /*want_unique=*/false));
        if (match.row < 0) continue;
        ctx.SetRow(1, static_cast<size_t>(match.row));
      } else {
        HQ_ASSIGN_OR_RETURN(bool ok, PredicateTrue(stmt.where.get(), ctx));
        if (!ok) continue;
      }
      HQ_ASSIGN_OR_RETURN(Row new_row, AssignRow(*table, r, stmt.assignments, assign_cols, ctx));
      staged.emplace_back(r, std::move(new_row));
      touched_rows.push_back(r);
    }

    if (options.enforce_unique_primary && table->unique_primary()) {
      std::vector<Row> new_rows;
      new_rows.reserve(staged.size());
      for (const auto& [r, row] : staged) new_rows.push_back(row);
      HQ_RETURN_NOT_OK(CheckUniqueness(*table, new_rows, &touched_rows));
    }

    for (auto& [r, row] : staged) {
      HQ_RETURN_NOT_OK(table->ReplaceRow(r, std::move(row)));
    }
    ExecResult result;
    result.rows_updated = staged.size();
    return result;
  };
  if (!from_table) return run(nullptr);
  JoinSides sides{table.get(), target_alias, from_table.get(), from_alias, stmt.where.get(),
                  /*drive_source=*/false};
  return RunJoinDml(sides, hash_join_, [&](JoinMatcher& matcher) { return run(&matcher); });
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
  auto run = [&](JoinMatcher* matcher) -> Result<ExecResult> {
    std::vector<size_t> doomed;
    EvalContext ctx;
    ctx.AddBinding(target_alias, table.get(), 0);
    for (size_t r = 0; r < table->num_rows(); ++r) {
      bool matched = false;
      if (matcher != nullptr) {
        HQ_ASSIGN_OR_RETURN(JoinMatch match, matcher->Match(r, /*want_unique=*/false));
        matched = match.row >= 0;
      } else {
        ctx.SetRow(0, r);
        HQ_ASSIGN_OR_RETURN(matched, PredicateTrue(stmt.where.get(), ctx));
      }
      if (matched) doomed.push_back(r);
    }
    HQ_RETURN_NOT_OK(table->RemoveRows(doomed));
    ExecResult result;
    result.rows_deleted = doomed.size();
    return result;
  };
  if (!using_table) return run(nullptr);
  JoinSides sides{table.get(), target_alias, using_table.get(), using_alias, stmt.where.get(),
                  /*drive_source=*/false};
  return RunJoinDml(sides, hash_join_, [&](JoinMatcher& matcher) { return run(&matcher); });
}

// --- MERGE ------------------------------------------------------------------

Result<ExecResult> Executor::ExecuteMerge(const sql::MergeStmt& stmt, const ExecOptions& options) {
  HQ_ASSIGN_OR_RETURN(TablePtr target, catalog_->GetTable(stmt.target.name));
  HQ_ASSIGN_OR_RETURN(TablePtr source, catalog_->GetTable(stmt.source.name));
  std::string target_alias = stmt.target.alias.empty() ? stmt.target.name : stmt.target.alias;
  std::string source_alias = stmt.source.alias.empty() ? stmt.source.name : stmt.source.alias;

  std::vector<size_t> update_cols;
  for (const auto& a : stmt.matched_update) {
    HQ_ASSIGN_OR_RETURN(size_t idx, target->schema().RequireFieldIndex(a.column));
    update_cols.push_back(idx);
  }

  // The matcher pairs source rows with the pre-statement target: nothing is
  // written until every source row has been matched.
  JoinSides sides{target.get(), target_alias, source.get(), source_alias, stmt.on.get(),
                  /*drive_source=*/true};
  return RunJoinDml(sides, hash_join_, [&](JoinMatcher& matcher) -> Result<ExecResult> {
    std::vector<std::pair<size_t, Row>> staged_updates;
    std::vector<size_t> touched_rows;
    std::vector<Row> staged_inserts;
    // The filter and WHEN NOT MATCHED see the source row; WHEN MATCHED sees
    // the target row, then the source row.
    EvalContext source_ctx;
    source_ctx.AddBinding(source_alias, source.get(), 0);
    EvalContext pair_ctx;
    pair_ctx.AddBinding(target_alias, target.get(), 0);
    pair_ctx.AddBinding(source_alias, source.get(), 0);

    for (size_t s = 0; s < source->num_rows(); ++s) {
      source_ctx.SetRow(0, s);
      if (stmt.source_filter) {
        HQ_ASSIGN_OR_RETURN(bool pass, PredicateTrue(stmt.source_filter.get(), source_ctx));
        if (!pass) continue;
      }
      HQ_ASSIGN_OR_RETURN(JoinMatch match, matcher.Match(s, /*want_unique=*/true));
      if (match.multiple) return Status::Invalid("MERGE source row matches multiple target rows");
      if (match.row >= 0) {
        if (stmt.matched_update.empty()) continue;
        const auto matched_target = static_cast<size_t>(match.row);
        pair_ctx.SetRow(0, matched_target);
        pair_ctx.SetRow(1, s);
        HQ_ASSIGN_OR_RETURN(Row new_row, AssignRow(*target, matched_target, stmt.matched_update,
                                                   update_cols, pair_ctx));
        staged_updates.emplace_back(matched_target, std::move(new_row));
        touched_rows.push_back(matched_target);
      } else {
        if (stmt.insert_values.empty()) continue;
        Row values;
        values.reserve(stmt.insert_values.size());
        for (const auto& e : stmt.insert_values) {
          HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, source_ctx));
          values.push_back(std::move(v));
        }
        HQ_ASSIGN_OR_RETURN(Row positioned,
                            ApplyColumnList(*target, stmt.insert_columns, std::move(values)));
        HQ_ASSIGN_OR_RETURN(Row coerced, CoerceRowToTable(*target, positioned));
        staged_inserts.push_back(std::move(coerced));
      }
    }

    if (options.enforce_unique_primary && target->unique_primary()) {
      std::vector<Row> all_new;
      for (const auto& [r, row] : staged_updates) all_new.push_back(row);
      for (const auto& row : staged_inserts) all_new.push_back(row);
      std::sort(touched_rows.begin(), touched_rows.end());
      HQ_RETURN_NOT_OK(CheckUniqueness(*target, all_new, &touched_rows));
    }

    for (auto& [r, row] : staged_updates) {
      HQ_RETURN_NOT_OK(target->ReplaceRow(r, std::move(row)));
    }
    size_t inserted = staged_inserts.size();
    HQ_RETURN_NOT_OK(target->AppendRows(std::move(staged_inserts)));

    ExecResult result;
    result.rows_updated = staged_updates.size();
    result.rows_inserted = inserted;
    return result;
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
