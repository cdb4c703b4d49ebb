#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdw/compiled_expr.h"
#include "cdw/executor.h"
#include "cdw/table.h"

/// \file join_dml.h
/// Row matching for the join DML statements: MERGE, UPDATE…FROM and
/// DELETE…USING. Internal to the executor; the header exists so the seeded
/// differential can run one statement down both paths.
///
/// The matcher pairs each *driving* row (MERGE: source; UPDATE/DELETE:
/// target) with rows of the *other* side. When the predicate splits at its
/// top-level ANDs into target-column = source-column equalities over
/// hash-safe types plus one-sided residuals, the other side is hashed once
/// and each driving row is a probe: O(|S|+|T|). Anything else takes the
/// nested loop, which evaluates the whole predicate per pair exactly as the
/// executor always has. See DESIGN.md "Join DML strategy".

namespace hyperq::cdw {

/// The two tables a join DML statement pairs up and the predicate pairing
/// them (MERGE's ON, or the WHERE of UPDATE…FROM / DELETE…USING). Predicate
/// contexts bind the target first, then the source.
struct JoinSides {
  const Table* target;
  std::string target_alias;
  const Table* source;
  std::string source_alias;
  const sql::Expr* predicate;  ///< null pairs every row with every row
  bool drive_source;           ///< MERGE drives from the source rows
};

/// Result of matching one driving row.
struct JoinMatch {
  int64_t row = -1;       ///< first paired other-side row, -1 for none
  bool multiple = false;  ///< a second pairing exists (only when asked)
};

class JoinMatcher {
 public:
  /// Plans the hash path unless `allow_hash` is false or the predicate is
  /// not provably equivalent on it; builds the hash index over the other
  /// side when planned.
  JoinMatcher(const JoinSides& sides, bool allow_hash);

  JoinPath path() const { return hash_ ? JoinPath::kHash : JoinPath::kNestedLoop; }

  /// Pairs driving row `row` with the other side: the first paired row in
  /// the other side's order. With `want_unique` it also reports whether a
  /// second one exists; the nested loop stops at that second pairing, as
  /// MERGE's multi-match check needs.
  common::Result<JoinMatch> Match(size_t row, bool want_unique);

  /// True once the hash path met a row it cannot decide (a residual error, a
  /// stored value of the wrong kind). Match then returned an error that the
  /// caller must discard and re-run the statement on the nested loop.
  bool fell_back() const { return fell_back_; }

  /// Other-side rows visited: the index build, or every nested-loop pass.
  uint64_t rows_scanned() const { return rows_scanned_; }

 private:
  enum class KeyFamily : uint8_t { kString, kInt, kDate };
  enum class KeyStatus : uint8_t { kKey, kNull, kUndecidable };

  bool Plan();
  bool BuildIndex();
  /// Evaluates one side's residuals on a row: 1 all true, 0 some false or
  /// NULL, -1 undecidable (an error or a non-boolean value).
  int Residuals(const std::vector<CompiledExpr>& residuals, size_t row) const;
  /// Encodes a stored row's equi-key into key_.
  KeyStatus EncodeKey(const std::vector<size_t>& columns, const Table& table, size_t row);
  common::Result<JoinMatch> NestedLoopMatch(size_t row, bool want_unique);

  const Table& driving() const { return *(sides_.drive_source ? sides_.source : sides_.target); }
  const Table& other() const { return *(sides_.drive_source ? sides_.target : sides_.source); }

  JoinSides sides_;
  bool hash_ = false;
  bool fell_back_ = false;
  uint64_t rows_scanned_ = 0;
  // Hash plan: equi-key columns per side (pairwise), key families, residuals.
  std::vector<size_t> driving_keys_;
  std::vector<size_t> other_keys_;
  std::vector<KeyFamily> families_;
  // Residuals, each compiled against its own side alone.
  std::vector<CompiledExpr> driving_residuals_;
  std::vector<CompiledExpr> other_residuals_;
  /// The nested loop's whole predicate, over (target, source).
  CompiledExpr predicate_;
  /// Encoded key -> first other-side row with that key (and whether more).
  std::unordered_map<std::string, JoinMatch> index_;
  std::string key_;
};

/// Runs a join DML statement body against a matcher, re-running it on the
/// nested loop when the hash path falls back mid-statement. The body must
/// stage all effects and commit only after its last Match call. Stamps the
/// path that produced the result into it, and adds every matcher's scanned
/// rows to `*rows_scanned`.
common::Result<ExecResult> RunJoinDml(
    const JoinSides& sides, bool allow_hash, uint64_t* rows_scanned,
    const std::function<common::Result<ExecResult>(JoinMatcher&)>& body);

/// Executes `stmt` with the hash path disabled: the nested-loop oracle the
/// differential compares the planner's choice against.
common::Result<ExecResult> ExecuteOnNestedLoop(Catalog* catalog, const sql::Statement& stmt,
                                               const ExecOptions& options = {});

}  // namespace hyperq::cdw
