#pragma once

#include <span>

#include "cdw/catalog.h"
#include "cdw/expr_eval.h"
#include "common/result.h"
#include "sql/ast.h"

/// \file executor.h
/// Set-oriented SQL execution over the catalog. Statement semantics mirror a
/// cloud warehouse:
///   - a statement either fully applies or fully aborts: every writing
///     statement stages its whole change as one TableWrite and commits it
///     with Table::Commit only after its last row was staged and checked,
///     so one bad tuple (conversion failure, constraint violation) leaves
///     the table untouched, and the error does NOT identify the offending
///     tuple — exactly the behaviour that motivates adaptive error handling
///     (paper Section 7);
///   - declared unique primary keys are NOT enforced natively; enforcement
///     happens only when the caller (Hyper-Q's Beta process) requests the
///     emulation via ExecOptions::enforce_unique_primary.

namespace hyperq::cdw {

/// How a join DML statement (MERGE, UPDATE…FROM, DELETE…USING) paired its
/// rows; kNone for every other statement.
enum class JoinPath : uint8_t { kNone, kHash, kNestedLoop };

struct ExecResult {
  uint64_t rows_inserted = 0;
  uint64_t rows_updated = 0;
  uint64_t rows_deleted = 0;
  JoinPath join_path = JoinPath::kNone;
  /// Table rows the statement's scan loops visited: every SELECT level, the
  /// UPDATE/DELETE/MERGE driving loop, and the join matcher's index build
  /// or nested loop (both runs when the hash path falls back).
  uint64_t rows_scanned = 0;
  types::Schema schema;          ///< non-empty for SELECT
  std::vector<types::Row> rows;  ///< SELECT result rows

  uint64_t activity_count() const {
    if (schema.num_fields() > 0) return rows.size();
    return rows_inserted + rows_updated + rows_deleted;
  }
};

struct ExecOptions {
  /// Hyper-Q's uniqueness emulation: validate declared unique primary keys
  /// during INSERT/MERGE/UPDATE; violations abort the statement.
  bool enforce_unique_primary = false;
};

struct ScanBinding;
class StatementWorkers;

class Executor {
 public:
  /// With `workers`, an INSERT…SELECT from one table of at least
  /// kMinParallelParts morsels runs its morsels in parallel (DESIGN.md
  /// "Embedded CDW: parallel statements"); without, every statement runs on
  /// the calling thread.
  explicit Executor(Catalog* catalog, StatementWorkers* workers = nullptr)
      : catalog_(catalog), workers_(workers) {}

  common::Result<ExecResult> Execute(const sql::Statement& stmt, const ExecOptions& options = {});

  /// Parses and executes one statement of SQL text (CDW dialect).
  common::Result<ExecResult> ExecuteSql(std::string_view sql, const ExecOptions& options = {});

  /// ExecResult::rows_scanned of the last statement, also when it failed.
  uint64_t rows_scanned() const { return rows_scanned_; }

 private:
  /// Stages the rows of an INSERT (executor.cc).
  class InsertStager;

  common::Result<ExecResult> Dispatch(const sql::Statement& stmt, const ExecOptions& options);
  /// With `sink`, the SELECT of an INSERT…SELECT: its rows are staged into
  /// `sink` instead of returned, and the error is the statement's (a SELECT
  /// error in any row wins over a staging error in an earlier row).
  common::Result<ExecResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                           InsertStager* sink = nullptr);
  /// The morsel-parallel form of a streamed single-source INSERT…SELECT.
  common::Status StageMorsels(const sql::SelectStmt& stmt, std::span<const ScanBinding> sources,
                              InsertStager* sink);
  common::Result<ExecResult> ExecuteInsert(const sql::InsertStmt& stmt,
                                           const ExecOptions& options);
  common::Result<ExecResult> ExecuteUpdate(const sql::UpdateStmt& stmt,
                                           const ExecOptions& options);
  common::Result<ExecResult> ExecuteDelete(const sql::DeleteStmt& stmt);
  common::Result<ExecResult> ExecuteMerge(const sql::MergeStmt& stmt, const ExecOptions& options);
  common::Result<ExecResult> ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  common::Result<ExecResult> ExecuteDropTable(const sql::DropTableStmt& stmt);

  friend common::Result<ExecResult> ExecuteOnNestedLoop(Catalog* catalog,
                                                        const sql::Statement& stmt,
                                                        const ExecOptions& options);

  Catalog* catalog_;
  StatementWorkers* workers_;
  /// Lets the join planner choose the hash path (see join_dml.h).
  bool hash_join_ = true;
  /// Scan rows visited by the running (or last) statement.
  uint64_t rows_scanned_ = 0;
};

}  // namespace hyperq::cdw
