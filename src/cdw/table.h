#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/schema.h"

/// \file table.h
/// Column-organized table of the simulated cloud data warehouse. Values are
/// stored per column; rows are assembled on demand. Mutations are staged by
/// the executor and committed atomically (set-oriented statement semantics:
/// a failing tuple aborts the whole statement with no partial effects, which
/// is exactly the behaviour that forces Hyper-Q's adaptive error handling).
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

  /// Materializes one row (a copy: statements read cells in place via At and
  /// copy a row only to stage its replacement).
  types::Row GetRow(size_t row) const;

  /// The primary-key tuple (primary_key_indexes() order) of a row whose
  /// column c is `cell(c)`: a stored row, a staged Row or a columnar batch.
  template <typename Cell>
  types::Row KeyOf(const Cell& cell) const {
    types::Row key;
    key.reserve(pk_indexes_.size());
    for (size_t idx : pk_indexes_) key.push_back(cell(idx));
    return key;
  }

  /// Appends a pre-validated row (values must already match column types).
  /// Tests build small tables with it; statements commit through
  /// AppendColumns.
  common::Status AppendRow(types::Row row);

  /// Appends pre-validated columnar data (values[c] is column c, all columns
  /// the same length). The commit path of COPY and of every INSERT and
  /// MERGE insert: one call appends an entire batch with no per-row
  /// re-validation.
  common::Status AppendColumns(std::vector<std::vector<types::Value>> values);

  /// Overwrites one row in place (used by committed updates).
  common::Status ReplaceRow(size_t row, types::Row values);

  /// Removes the rows whose indexes are listed (sorted ascending).
  common::Status RemoveRows(const std::vector<size_t>& sorted_rows);

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
