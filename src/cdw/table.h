#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/schema.h"

/// \file table.h
/// Column-organized table of the simulated cloud data warehouse. Values are
/// stored per column; statements read cells in place through At. A table
/// changes in one place: every writing statement (INSERT, UPDATE, DELETE,
/// MERGE and COPY) stages one TableWrite and Table::Commit applies it whole,
/// which is the set-oriented statement semantics: a failing tuple aborts the
/// whole statement with no partial effects, exactly the behaviour that forces
/// Hyper-Q's adaptive error handling.
///
/// The table records a declared unique primary key but does NOT enforce it:
/// like the cloud warehouses the paper targets, constraints are metadata
/// only, and Hyper-Q emulates enforcement (paper Section 7).

namespace hyperq::cdw {

/// Lexicographic tuple order on Value::Compare: the key index, DISTINCT and
/// GROUP BY all order rows with it.
struct RowLess {
  bool operator()(const types::Row& a, const types::Row& b) const;
};

/// One statement's change to a table, staged column-wise while the statement
/// runs and applied by Table::Commit. Row indexes name the rows as stored
/// before the write. (The empty member initializers let designated
/// initializers name only the parts a write uses.)
struct TableWrite {
  /// Rows appended after the stored ones: appended[c] holds column c's
  /// cells, every column the same length. Left empty, nothing is appended.
  std::vector<std::vector<types::Value>> appended{};
  /// The columns the updates assign, each once. assigned_values[i][u] is
  /// the new cell of column assigned[i] in row updated_rows[u]; the other
  /// columns of an updated row keep their cells.
  std::vector<size_t> assigned{};
  std::vector<std::vector<types::Value>> assigned_values{};
  /// Stored rows the updates rewrite, in staging order. A row may repeat;
  /// its last update wins.
  std::vector<size_t> updated_rows{};
  /// Stored rows removed, strictly ascending.
  std::vector<size_t> removed_rows{};

  size_t appended_rows() const { return appended.empty() ? 0 : appended[0].size(); }
};

/// Concatenates column segments (each one vector per column, the columns
/// of a segment the same length) in segment order into `num_columns`
/// columns: how a statement that staged its rows in parts merges them. A
/// segment's column is released as soon as it has been moved, and a lone
/// non-empty segment is adopted without moving its cells.
std::vector<std::vector<types::Value>> ConcatColumns(
    std::vector<std::vector<std::vector<types::Value>>> segments, size_t num_columns);

class Table {
 public:
  Table(std::string name, types::Schema schema, std::vector<std::string> primary_key = {},
        bool unique_primary = false);

  const std::string& name() const { return name_; }
  const types::Schema& schema() const { return schema_; }
  const std::vector<std::string>& primary_key() const { return primary_key_; }
  bool unique_primary() const { return unique_primary_; }
  /// Column indexes of the primary key.
  const std::vector<size_t>& primary_key_indexes() const { return pk_indexes_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Cell accessor (no bounds checking beyond asserts).
  const types::Value& At(size_t row, size_t col) const { return columns_[col][row]; }

  /// A copy of one row, for callers outside the engine: statements read
  /// cells in place via At.
  types::Row GetRow(size_t row) const;

  /// The primary-key tuple (primary_key_indexes() order) of a row whose
  /// column c is `cell(c)`: a stored row or a staged one.
  template <typename Cell>
  types::Row KeyOf(const Cell& cell) const {
    types::Row key;
    key.reserve(pk_indexes_.size());
    for (size_t idx : pk_indexes_) key.push_back(cell(idx));
    return key;
  }

  /// Applies a statement's write: the updates, then the removals, then the
  /// appends. Cells must already match the column types. The whole write is
  /// checked (arity, row indexes, removal order) before anything changes,
  /// so a rejected write leaves cells and key index untouched. The key index
  /// is maintained here alone, and an update that assigns no key column
  /// leaves it as it is. An empty column adopts its appended cells without
  /// copying them.
  common::Status Commit(TableWrite write);

  /// Removes all rows.
  void Truncate();

  /// Approximate bytes held by the table (memory accounting).
  size_t MemoryBytes() const;

  /// Number of stored rows whose primary-key tuple equals `key` (values in
  /// primary_key_indexes() order). Answered from an incrementally maintained
  /// index, so uniqueness emulation costs O(staged log n) per statement
  /// instead of a full-table rescan. Always 0 when no unique primary key is
  /// declared (the index is not maintained).
  size_t PrimaryKeyCount(const types::Row& key) const;

 private:
  bool IndexedKeys() const { return unique_primary_ && !pk_indexes_.empty(); }
  void IndexInsert(types::Row key);
  void IndexErase(const types::Row& key);

  std::string name_;
  types::Schema schema_;
  std::vector<std::string> primary_key_;
  bool unique_primary_;
  std::vector<size_t> pk_indexes_;
  std::vector<std::vector<types::Value>> columns_;
  size_t num_rows_ = 0;
  /// Multiset of stored primary-key tuples (key -> occurrence count). The
  /// table itself never rejects duplicates (constraints are metadata only,
  /// see the file comment); the count is what lets the executor emulate
  /// enforcement without scanning.
  std::map<types::Row, size_t, RowLess> pk_index_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace hyperq::cdw
