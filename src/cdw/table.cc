#include "cdw/table.h"

#include <algorithm>
#include <iterator>

namespace hyperq::cdw {

using common::Status;
using types::Row;
using types::Value;

Table::Table(std::string name, types::Schema schema, std::vector<std::string> primary_key,
             bool unique_primary)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      primary_key_(std::move(primary_key)),
      unique_primary_(unique_primary) {
  columns_.resize(schema_.num_fields());
  for (const auto& col : primary_key_) {
    int idx = schema_.FieldIndex(col);
    if (idx >= 0) pk_indexes_.push_back(static_cast<size_t>(idx));
  }
}

bool RowLess::operator()(const Row& a, const Row& b) const {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

void Table::IndexInsert(Row key) { ++pk_index_[std::move(key)]; }

void Table::IndexErase(const Row& key) {
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return;
  if (--it->second == 0) pk_index_.erase(it);
}

size_t Table::PrimaryKeyCount(const Row& key) const {
  auto it = pk_index_.find(key);
  return it == pk_index_.end() ? 0 : it->second;
}

Row Table::GetRow(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col[row]);
  return out;
}

std::vector<std::vector<Value>> ConcatColumns(std::vector<std::vector<std::vector<Value>>> segments,
                                              size_t num_columns) {
  std::vector<std::vector<Value>> out(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    size_t total = 0;
    size_t filled = 0;  // segments with cells in this column
    for (const auto& segment : segments) {
      if (c < segment.size() && !segment[c].empty()) {
        total += segment[c].size();
        ++filled;
      }
    }
    if (filled > 1) out[c].reserve(total);
    for (auto& segment : segments) {
      if (c >= segment.size() || segment[c].empty()) continue;
      if (filled == 1) {
        out[c] = std::move(segment[c]);
        break;
      }
      std::move(segment[c].begin(), segment[c].end(), std::back_inserter(out[c]));
      std::vector<Value>().swap(segment[c]);
    }
  }
  return out;
}

namespace {

/// Whether `write` fits a table of `num_rows` rows and `num_columns`
/// columns; Commit changes nothing unless it does.
Status CheckWrite(const TableWrite& write, size_t num_rows, size_t num_columns) {
  bool fits = write.appended.empty() || write.appended.size() == num_columns;
  for (const auto& col : write.appended) fits &= col.size() == write.appended_rows();
  fits &= write.assigned_values.size() == write.assigned.size();
  for (size_t i = 0; fits && i < write.assigned.size(); ++i) {
    fits = write.assigned[i] < num_columns &&
           write.assigned_values[i].size() == write.updated_rows.size();
  }
  if (!fits) return Status::Invalid("write does not match the table's columns");
  for (size_t r : write.updated_rows) fits &= r < num_rows;
  const std::vector<size_t>& removed = write.removed_rows;
  for (size_t i = 0; i < removed.size(); ++i) {
    fits &= removed[i] < num_rows && (i == 0 || removed[i] > removed[i - 1]);
  }
  if (!fits) return Status::Invalid("write names a row out of range or out of order");
  return Status::OK();
}

}  // namespace

Status Table::Commit(TableWrite write) {
  HQ_RETURN_NOT_OK(CheckWrite(write, num_rows_, columns_.size()));
  auto stored = [this](size_t r) { return KeyOf([&](size_t c) { return At(r, c); }); };

  // An update that assigns no key column leaves the key index alone.
  bool rekey = false;
  for (size_t c : write.assigned) {
    rekey |= std::find(pk_indexes_.begin(), pk_indexes_.end(), c) != pk_indexes_.end();
  }
  rekey &= IndexedKeys();
  for (size_t u = 0; u < write.updated_rows.size(); ++u) {
    const size_t r = write.updated_rows[u];
    if (rekey) IndexErase(stored(r));
    for (size_t i = 0; i < write.assigned.size(); ++i) {
      columns_[write.assigned[i]][r] = std::move(write.assigned_values[i][u]);
    }
    if (rekey) IndexInsert(stored(r));
  }

  const std::vector<size_t>& removed = write.removed_rows;
  if (!removed.empty()) {
    if (IndexedKeys()) {
      for (size_t r : removed) IndexErase(stored(r));
    }
    for (auto& col : columns_) {
      std::vector<Value> kept;
      kept.reserve(col.size() - removed.size());
      size_t next_removed = 0;
      for (size_t r = 0; r < col.size(); ++r) {
        if (next_removed < removed.size() && removed[next_removed] == r) {
          ++next_removed;
          continue;
        }
        kept.push_back(std::move(col[r]));
      }
      col = std::move(kept);
    }
    num_rows_ -= removed.size();
  }

  const size_t added = write.appended_rows();
  if (added == 0) return Status::OK();
  auto& appended = write.appended;
  if (IndexedKeys()) {
    for (size_t r = 0; r < added; ++r) {
      IndexInsert(KeyOf([&](size_t c) { return appended[c][r]; }));
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    auto& dst = columns_[c];
    if (dst.empty()) {
      dst = std::move(appended[c]);  // an empty table adopts the batch
      continue;
    }
    dst.insert(dst.end(), std::make_move_iterator(appended[c].begin()),
               std::make_move_iterator(appended[c].end()));
  }
  num_rows_ += added;
  return Status::OK();
}

void Table::Truncate() {
  for (auto& col : columns_) col.clear();
  num_rows_ = 0;
  pk_index_.clear();
}

size_t Table::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += col.size() * sizeof(Value);
    for (const auto& v : col) {
      if (v.is_string()) bytes += v.string_value().size();
    }
  }
  return bytes;
}

}  // namespace hyperq::cdw
