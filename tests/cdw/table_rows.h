#pragma once

#include <vector>

#include "cdw/table.h"

namespace hyperq::cdw {

/// Appends `rows` to `table` in one Table::Commit: tests write their small
/// tables row by row. A row of the wrong arity makes the write fail whole.
inline common::Status AppendRows(Table* table, const std::vector<types::Row>& rows) {
  TableWrite write;
  write.appended.resize(table->num_columns());
  for (const types::Row& row : rows) {
    if (row.size() > write.appended.size()) write.appended.resize(row.size());
    for (size_t c = 0; c < row.size(); ++c) write.appended[c].push_back(row[c]);
  }
  return table->Commit(std::move(write));
}

}  // namespace hyperq::cdw
