#include "hyperq/conversion_columnar.h"

#include <algorithm>

#include "cdw/staging_binary.h"

/// \file conversion_columnar.cc
/// The HQB1 chunk builder and the plan's HQB1 staging state: the encode
/// half of the binary direct-pipe load path. The field kernels and their
/// HQB1 encoder, which append typed cells to the ColumnSinks, and the chunk
/// loops that drive them live in conversion_plan.cc.

namespace hyperq::core {

using common::ByteBuffer;

ColumnarChunkBuilder::ColumnarChunkBuilder(const std::vector<uint32_t>& target_widths)
    : cols_(target_widths.size()), pending_null_(target_widths.size(), 0) {
  for (size_t i = 0; i < target_widths.size(); ++i) cols_[i].fixed_width = target_widths[i];
}

void ColumnarChunkBuilder::Reserve(uint32_t rows, size_t varlen_bytes,
                                   const std::vector<uint32_t>& varlen_lengths) {
  uint64_t total_length = 0;
  for (uint32_t length : varlen_lengths) total_length += length;
  for (size_t i = 0; i < cols_.size(); ++i) {
    ColumnSink& s = cols_[i];
    s.nulls.reserve((static_cast<size_t>(rows) + 7) / 8);
    if (s.fixed_width != 0) {
      s.data.reserve(static_cast<size_t>(rows) * s.fixed_width);
      continue;
    }
    s.offsets.reserve(rows);
    const uint64_t share = varlen_bytes * varlen_lengths[i] / std::max<uint64_t>(1, total_length);
    s.data.reserve(static_cast<size_t>(
        std::min<uint64_t>(share, static_cast<uint64_t>(rows) * varlen_lengths[i])));
  }
}

void ColumnarChunkBuilder::AppendNullCell(size_t i) {
  ColumnSink& s = cols_[i];
  if (s.fixed_width != 0) s.data.resize(s.data.size() + s.fixed_width);  // zero-filled slot
  pending_null_[i] = 1;
}

void ColumnarChunkBuilder::CommitRow(uint64_t row_number) {
  cols_.back().data.AppendI64(static_cast<int64_t>(row_number));  // HQ_ROWNUM
  const uint8_t bit = static_cast<uint8_t>(1u << (rows_ & 7));
  const bool new_byte = (rows_ & 7) == 0;
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnSink& s = cols_[c];
    if (s.fixed_width == 0) s.offsets.push_back(static_cast<uint32_t>(s.data.size()));
    if (new_byte) s.nulls.push_back(0);
    if (pending_null_[c] != 0) s.nulls.back() |= bit;
    pending_null_[c] = 0;
  }
  ++rows_;
}

void ColumnarChunkBuilder::RollbackRow() {
  // Offsets and bitmap bits are only written at commit, so the committed
  // state is fully determined by rows_: truncate each column's cell bytes
  // back to it and drop the pending null marks.
  for (ColumnSink& s : cols_) {
    s.data.resize(s.fixed_width != 0 ? static_cast<size_t>(rows_) * s.fixed_width
                                     : (s.offsets.empty() ? 0 : s.offsets.back()));
  }
  std::fill(pending_null_.begin(), pending_null_.end(), 0);
}

void ColumnarChunkBuilder::Finish(const ByteBuffer& header_template, ByteBuffer* out) const {
  if (rows_ == 0) return;  // all-bad chunk stages zero bytes (CSV parity)
  const size_t base = out->size();
  out->AppendSlice(header_template.AsSlice());
  out->PatchU32(base + cdw::kHqb1RowCountOffset, rows_);
  for (const ColumnSink& s : cols_) {
    out->AppendBytes(s.nulls.data(), s.nulls.size());
    if (s.fixed_width != 0) {
      out->AppendSlice(s.data.AsSlice());
      continue;
    }
    out->AppendU32(static_cast<uint32_t>(s.data.size()));
    for (uint32_t end : s.offsets) out->AppendU32(end);
    out->AppendSlice(s.data.AsSlice());
  }
}

void ConversionPlan::AttachBinaryStaging(const types::Schema& staging_schema) {
  staging_format_ = cdw::StagingFormat::kBinary;
  header_template_.clear();
  cdw::BuildBlockHeader(staging_schema, &header_template_);
  target_widths_.clear();
  target_widths_.reserve(staging_schema.num_fields());
  varlen_lengths_.clear();
  size_t fixed = 0;
  size_t nvarlen = 0;
  for (const auto& field : staging_schema.fields()) {
    auto w = static_cast<uint32_t>(cdw::BinaryFixedWidth(field.type.id, field.type.length));
    target_widths_.push_back(w);
    varlen_lengths_.push_back(w == 0 ? static_cast<uint32_t>(std::max(1, field.type.length)) : 0);
    if (w == 0) {
      ++nvarlen;
    } else {
      fixed += w;
    }
  }
  per_row_binary_hint_ = fixed + 4 * nvarlen + (staging_schema.num_fields() + 7) / 8;
}

}  // namespace hyperq::core
