#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "hyperq/conversion_plan.h"

/// \file conversion_columnar.h
/// The HQB1 columnar encode side of the direct-pipe load path: the column
/// sinks and chunk builder behind ConversionPlan's HQB1 staging sink. The
/// field kernels (conversion_plan.cc) run with the HQB1 encoder here: where
/// the CSV encoder appends escaped text, it appends typed little-endian
/// staging values into per-column sinks; the builder assembles the sinks
/// into one self-describing HQB1 block per chunk (cdw/staging_binary.h)
/// that CDW COPY appends without per-cell parsing.
///
/// Same hot-loop discipline as the CSV path: steady-state encoding performs
/// zero per-row heap allocations (sink growth is amortized ByteBuffer
/// doubling), and per-record rollback is pure truncation derived from the
/// committed row count — no undo log.

namespace hyperq::core {

/// Output state of one staging column while a chunk is being encoded.
struct ColumnSink {
  /// Fixed staging cell width in bytes; 0 = varlen (VARCHAR).
  uint32_t fixed_width = 0;
  /// Fixed value bytes (fixed columns) or cell payload bytes (varlen).
  common::ByteBuffer data;
  /// Varlen END offsets, one per committed row (appended at CommitRow).
  std::vector<uint32_t> offsets;
  /// LSB-first null bitmap, bit (row & 7) of byte (row >> 3).
  std::vector<uint8_t> nulls;
};

/// Accumulates one chunk's rows column-wise and serializes the HQB1 block.
/// Row protocol: kernels append cell bytes into col(i) (callers MarkNull
/// first for NULL cells so the bitmap is recorded), then exactly one of
/// CommitRow / RollbackRow. Rollback is truncation to the committed state:
/// offsets and bitmap bits are only written at commit, so only in-progress
/// cell bytes need cutting.
class ColumnarChunkBuilder {
 public:
  /// `target_widths` has one entry per staging column INCLUDING the trailing
  /// HQ_ROWNUM BIGINT (width 8), matching the block header's column order.
  explicit ColumnarChunkBuilder(const std::vector<uint32_t>& target_widths);

  /// Sizes the sinks for a chunk of `rows` rows, so a chunk inside the
  /// estimate grows no buffer: fixed cells, varlen offsets and null bitmaps
  /// exactly, and varlen cell bytes as each column's share of `varlen_bytes`
  /// by its declared length (`varlen_lengths`, 0 for fixed columns), capped
  /// at `rows` full-length cells.
  void Reserve(uint32_t rows, size_t varlen_bytes, const std::vector<uint32_t>& varlen_lengths);

  /// Sink of staging column `i` (HQ_ROWNUM's sink is never written by
  /// kernels; CommitRow fills it).
  ColumnSink* col(size_t i) { return &cols_[i]; }

  /// Records that column `i` of the in-progress row is NULL.
  void MarkNull(size_t i) { pending_null_[i] = 1; }

  /// Appends the canonical NULL cell to column `i` (zero-filled fixed slot /
  /// empty varlen cell) and marks it NULL — what a kernel emits for a NULL
  /// indicator, for target slots no source field fills.
  void AppendNullCell(size_t i);

  /// Seals the in-progress row: appends HQ_ROWNUM, varlen offsets and null
  /// bitmap bits for every column.
  void CommitRow(uint64_t row_number);

  /// Discards the in-progress row (truncates uncommitted cell bytes).
  void RollbackRow();

  uint32_t rows() const { return rows_; }

  /// Appends the finished HQB1 block (header copy with patched row count +
  /// column sections) to `out`. Emits nothing when no row committed (CSV
  /// parity: an all-bad chunk stages zero bytes).
  void Finish(const common::ByteBuffer& header_template, common::ByteBuffer* out) const;

 private:
  std::vector<ColumnSink> cols_;
  std::vector<uint8_t> pending_null_;
  uint32_t rows_ = 0;
};

}  // namespace hyperq::core
