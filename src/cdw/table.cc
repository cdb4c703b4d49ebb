#include "cdw/table.h"

#include <algorithm>

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

Status Table::AppendRow(Row row) {
  if (row.size() != columns_.size()) {
    return Status::Invalid("row arity " + std::to_string(row.size()) + " != table arity " +
                           std::to_string(columns_.size()));
  }
  if (IndexedKeys()) IndexInsert(KeyOf([&](size_t c) { return row[c]; }));
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendColumns(std::vector<std::vector<Value>> values) {
  if (values.size() != columns_.size()) {
    return Status::Invalid("column arity " + std::to_string(values.size()) + " != table arity " +
                           std::to_string(columns_.size()));
  }
  const size_t added = values.empty() ? 0 : values[0].size();
  for (const auto& col : values) {
    if (col.size() != added) {
      return Status::Invalid("AppendColumns requires uniform column lengths");
    }
  }
  if (added == 0) return Status::OK();
  if (IndexedKeys()) {
    for (size_t r = 0; r < added; ++r) IndexInsert(KeyOf([&](size_t c) { return values[c][r]; }));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    auto& dst = columns_[c];
    if (dst.empty()) {
      dst = std::move(values[c]);  // an empty table adopts the batch
      continue;
    }
    dst.insert(dst.end(), std::make_move_iterator(values[c].begin()),
               std::make_move_iterator(values[c].end()));
  }
  num_rows_ += added;
  return Status::OK();
}

Status Table::ReplaceRow(size_t row, Row values) {
  if (row >= num_rows_) return Status::Invalid("row index out of range");
  if (values.size() != columns_.size()) return Status::Invalid("row arity mismatch");
  if (IndexedKeys()) {
    IndexErase(KeyOf([&](size_t c) { return At(row, c); }));
    IndexInsert(KeyOf([&](size_t c) { return values[c]; }));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c][row] = std::move(values[c]);
  }
  return Status::OK();
}

Status Table::RemoveRows(const std::vector<size_t>& sorted_rows) {
  if (sorted_rows.empty()) return Status::OK();
  for (size_t i = 1; i < sorted_rows.size(); ++i) {
    if (sorted_rows[i] <= sorted_rows[i - 1]) {
      return Status::Invalid("RemoveRows requires strictly ascending indexes");
    }
  }
  if (sorted_rows.back() >= num_rows_) return Status::Invalid("row index out of range");
  if (IndexedKeys()) {
    for (size_t r : sorted_rows) IndexErase(KeyOf([&](size_t c) { return At(r, c); }));
  }
  for (auto& col : columns_) {
    std::vector<Value> kept;
    kept.reserve(col.size() - sorted_rows.size());
    size_t next_removed = 0;
    for (size_t r = 0; r < col.size(); ++r) {
      if (next_removed < sorted_rows.size() && sorted_rows[next_removed] == r) {
        ++next_removed;
        continue;
      }
      kept.push_back(std::move(col[r]));
    }
    col = std::move(kept);
  }
  num_rows_ -= sorted_rows.size();
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
