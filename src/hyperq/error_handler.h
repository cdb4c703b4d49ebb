#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "common/result.h"
#include "common/retry.h"
#include "hyperq/hyperq_config.h"
#include "sql/ast.h"
#include "types/schema.h"

/// \file error_handler.h
/// Adaptive error handling (paper Section 7). The application phase runs the
/// bound DML over the whole staging table in one set-oriented statement. If
/// the CDW aborts it (a conversion failure or an emulated uniqueness
/// violation, reported at chunk granularity with no tuple identified), the
/// handler walks the halving tree of the row range, re-applying the DML on
/// each failed range's halves, until either a single row isolates the faulty
/// tuple (recorded in the ET or UV error table) or a preconfigured limit
/// stops the search:
///   - max_errors: once this many individual errors are recorded, remaining
///     failing ranges are logged as a single range error (code 9057,
///     "row numbers: (a, b)") instead of being split further — Figure 6;
///   - max_retries: maximum split depth for any chunk.
///
/// For an INSERT the walk is planned by default (ErrorIsolation::kPlanned):
/// one suspect query asks the warehouse which rows would fail and which
/// column fails first, nodes that hold a suspect are split without executing
/// them, clean runs apply in one statement each and suspects execute as
/// singletons. Once the suspect query has answered, the walk predicts every
/// statement it will send, so they go to the warehouse in one batch
/// (CdwServer::ExecBatch) that stops at the first statement whose outcome
/// differs from its prediction. A failed run rewinds the walk to where the
/// run began and drops the predictions, so the rest is halving, one round
/// trip per statement. The suspect query's answer also names the ERRORFIELD
/// of a suspect when the model covers every column before the failing one
/// (DESIGN.md "Error isolation (§7)").

namespace hyperq::core {

struct AdaptiveOptions {
  uint64_t max_errors = 100;
  int max_retries = 64;
  bool enforce_uniqueness = true;
  ErrorIsolation isolation = ErrorIsolation::kPlanned;
  /// Transient-failure policy for every statement shipped to the CDW. The
  /// adaptive splitting above absorbs *tuple* errors; this absorbs *endpoint*
  /// errors (injected or real), which would otherwise abort the whole apply.
  /// Its on_backoff hook, when set, sees every retried statement.
  common::RetryOptions io_retry;
};

struct DmlApplyResult {
  uint64_t rows_inserted = 0;
  uint64_t rows_updated = 0;
  uint64_t rows_deleted = 0;
  uint64_t et_errors = 0;  ///< transformation/data errors recorded (ET rows)
  uint64_t uv_errors = 0;  ///< uniqueness violations recorded
  uint64_t range_errors = 0;  ///< 9057 range entries among et_errors
  /// DML statements issued against the CDW (instrumentation for benchmarks);
  /// the suspect query, the one ET insert and each statement of a batch
  /// count, the ERRORFIELD probes do not.
  uint64_t statements_issued = 0;
  /// Requests sent to the CDW, each one a modelled round trip: a statement,
  /// an ERRORFIELD probe or a batch. A retried request counts once.
  uint64_t round_trips = 0;
  /// Rows the suspect query predicted to fail (planned isolation).
  uint64_t suspects = 0;
  /// Planned isolations that finished with halving: the suspect query
  /// failed or found no row, or a run of predicted-clean rows failed.
  uint64_t plan_fallbacks = 0;

  /// Adds every field of `other` (a stream's totals over its batches).
  void Add(const DmlApplyResult& other);
};

/// Schemas of the error tables Hyper-Q materializes in the CDW.
/// ET (transformation errors): ERRORCODE INTEGER, ERRORFIELD VARCHAR(128),
///   ERRORMESSAGE VARCHAR(1024)    — Figure 6 shape.
/// UV (uniqueness violations): the layout's columns as text, plus
///   SEQNO BIGINT, ERRCODE INTEGER — Figure 5(c) shape.
types::Schema MakeEtErrorSchema();
types::Schema MakeUvErrorSchema(const types::Schema& layout);

/// One ET row: ERRORCODE, ERRORFIELD (empty is written as NULL) and
/// ERRORMESSAGE.
struct EtRow {
  uint32_t code = 0;
  std::string field;
  std::string message;
};

/// The only text that writes ET rows: `INSERT INTO <et_table> VALUES
/// (...), (...)` with `rows` in order. `rows` must not be empty.
std::string EtInsertSql(const std::string& et_table, const std::vector<EtRow>& rows);

/// Quarantine table for the data-quality gate (HQ_QRTN_<job>): the load
/// layout's columns as raw text — quarantined rows are diagnostics, not typed
/// reload data — plus the reason columns the conversion kernels emit:
///   QRTN_ROWNUM BIGINT        source row number (the HQ_ROWNUM value)
///   QRTN_CONSTRAINT INTEGER   constraint id within the table's spec block
///   QRTN_KIND VARCHAR(16)     reason-code family (notnull, range, ...)
///   QRTN_COLUMN VARCHAR(128)  column the constraint names
///   QRTN_BOUND VARCHAR(256)   violated bound, human-readable
/// Fails when the layout already uses a QRTN_* reserved name.
common::Result<types::Schema> MakeQuarantineSchema(const types::Schema& layout);

class AdaptiveDmlApplier {
 public:
  /// `legacy_dml` is the un-bound legacy DML (with :placeholders).
  /// `staging_table` must contain the layout columns plus HQ_ROWNUM.
  AdaptiveDmlApplier(cdw::CdwServer* cdw, const sql::Statement* legacy_dml,
                     types::Schema layout, std::string staging_table, std::string target_table,
                     std::string et_table, std::string uv_table, AdaptiveOptions options);

  /// Applies the DML over staging rows [first_row, last_row] (inclusive,
  /// 1-based global row numbers). The ET rows the search records are sent
  /// in one statement when it ends, also when it ends in an error.
  common::Result<DmlApplyResult> Apply(uint64_t first_row, uint64_t last_row);

 private:
  /// The walk of the halving tree and one of its nodes (error_handler.cc).
  class Walk;
  struct Node;
  /// Results of a batch that the walk has not reached yet, in order.
  using Pending = std::deque<common::Result<cdw::ExecResult>>;

  /// Apply without the ET write: one explicit-stack walk of the halving
  /// tree below [first_row, last_row] (DESIGN.md "Error isolation (§7)").
  common::Status Search(uint64_t first_row, uint64_t last_row, DmlApplyResult* result);
  /// True when the status is a tuple-level failure the handler absorbs.
  static bool IsAbsorbableFailure(const common::Status& s);
  /// The result of executing `node`, which `walk` just returned: the next
  /// one in `pending`; else, when the walk predicts the node, the first of a
  /// new batch; else the node's own statement.
  common::Result<cdw::ExecResult> Execute(const Walk& walk, const Node& node, Pending* pending,
                                          DmlApplyResult* result);
  /// Plays a copy of `walk` ahead from `node` on its predictions, and sends
  /// in one batch every statement it would execute before a node it cannot
  /// predict.
  common::Result<Pending> ExecuteBatch(Walk walk, const Node& node, DmlApplyResult* result);

  /// The HQ_ROWNUMs in [first, last] whose row-local failure points
  /// (conversions, the target casts, NOT NULL) fail, ascending; one query.
  /// Records in `error_fields_` the ERRORFIELD its answer settles.
  common::Result<std::vector<uint64_t>> FindSuspects(uint64_t first, uint64_t last,
                                                     DmlApplyResult* result);

  /// True for an INSERT with one VALUES row: the DML whose select items map
  /// one to one onto target columns.
  bool PlainInsert() const;
  /// Per select item of a bound INSERT...SELECT: the target column it loads,
  /// and whether the item's failure is modelled, by `fails` (null when it
  /// cannot fail). Empty when a listed column does not exist.
  struct ItemModel {
    std::string column;
    bool modelled = false;
    sql::ExprPtr fails;
  };
  common::Result<std::vector<ItemModel>> ModelItems(const sql::InsertStmt& bound) const;

  /// A UV row is inserted now; an ET row is kept for the one ET insert.
  common::Status RecordSingletonError(uint64_t row, const common::Status& failure,
                                      DmlApplyResult* result);
  void RecordRangeError(uint64_t first, uint64_t last, DmlApplyResult* result);
  /// Finds which target column fails to load a given staging row
  /// (best-effort; empty when not identifiable): the suspect query's answer
  /// when it settles it, else one probe for the modelled items and an
  /// expression probe for each other item.
  std::string IdentifyErrorField(uint64_t row, DmlApplyResult* result);

  /// The DML bound to staging rows [first, last] and transpiled.
  common::Result<sql::StatementPtr> Bind(uint64_t first, uint64_t last) const;
  /// The bound DML for a row range as the statement shipped to the CDW.
  common::Result<cdw::BatchStatement> BoundStatement(uint64_t first, uint64_t last) const;

  /// The per-request retry policy: io_retry options + the "cdw" breaker.
  /// Tuple-level failures are not retryable, so they come straight back;
  /// only transient endpoint failures burn retry attempts.
  common::RetryPolicy CdwRetry() const;
  /// Ships one SQL text to the CDW under CdwRetry(): one round trip.
  common::Result<cdw::ExecResult> ExecSql(const std::string& sql_text, DmlApplyResult* result,
                                          const cdw::ExecOptions& exec = {}) const;

  cdw::CdwServer* cdw_;
  const sql::Statement* legacy_dml_;
  types::Schema layout_;
  std::string staging_table_;
  std::string target_table_;
  std::string et_table_;
  std::string uv_table_;
  AdaptiveOptions options_;
  /// ET rows recorded by the search and not yet written, in record order.
  std::vector<EtRow> et_rows_;
  /// HQ_ROWNUM -> the ERRORFIELD the suspect query's answer settles.
  std::map<uint64_t, std::string> error_fields_;
};

/// SQL-quotes a string literal (doubling single quotes).
std::string SqlQuote(const std::string& s);

}  // namespace hyperq::core
