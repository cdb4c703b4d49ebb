#include "hyperq/conversion_columnar.h"

#include <algorithm>

#include "cdw/staging_binary.h"
#include "hyperq/quality.h"
#include "legacy/errors.h"
#include "legacy/row_format.h"
#include "types/date.h"
#include "types/type_mapping.h"

/// \file conversion_columnar.cc
/// HQB1 columnar kernels and the chunk builder: the encode half of the
/// binary direct-pipe load path. One kernel per SOURCE TypeId decodes a
/// field straight off the chunk's ByteReader — exactly the wire bytes the
/// CSV kernels consume — and appends the typed staging value to the field's
/// ColumnSink. The chunk loops that drive them, shared with CSV staging,
/// live in conversion_plan.cc behind the HQB1 staging sink.

namespace hyperq::core {

using common::ByteBuffer;
using common::ByteReader;
using common::Slice;
using common::Status;
using types::TypeId;

namespace {

using FieldPlan = ConversionPlan::FieldPlan;

Status KernelColBoolean(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                        QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(uint8_t b, body->ReadByte());
  if (f.checks != nullptr) QcPresence(*f.checks, null, q);
  col->data.AppendByte(null ? 0 : (b != 0 ? 1 : 0));
  return Status::OK();
}

Status KernelColInt8(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int8_t v, body->ReadI8());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  // BYTEINT stages as SMALLINT (the CDW has no 1-byte integer).
  col->data.AppendI16(null ? 0 : v);
  return Status::OK();
}

Status KernelColInt16(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                      QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int16_t v, body->ReadI16());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  col->data.AppendI16(null ? 0 : v);
  return Status::OK();
}

Status KernelColInt32(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                      QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t v, body->ReadI32());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  col->data.AppendI32(null ? 0 : v);
  return Status::OK();
}

Status KernelColInt64(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                      QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t v, body->ReadI64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  col->data.AppendI64(null ? 0 : v);
  return Status::OK();
}

Status KernelColFloat64(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                        QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(double v, body->ReadF64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, v, q);
  col->data.AppendF64(null ? 0.0 : v);
  return Status::OK();
}

Status KernelColDecimal(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                        QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t unscaled, body->ReadI64());
  // Quality range bounds are pre-scaled to unscaled units at compile.
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(unscaled), q);
  col->data.AppendI64(null ? 0 : unscaled);
  return Status::OK();
}

Status KernelColDate(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t enc, body->ReadI32());
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    col->data.AppendI32(0);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::DateDays days, legacy::LegacyDateDecode(enc));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(days), q);
  col->data.AppendI32(days);
  return Status::OK();
}

Status KernelColTimestamp(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                          QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(legacy::kLegacyTimestampWidth));
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    col->data.AppendI64(0);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts, types::ParseTimestampIso(text.ToStringView()));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(ts), q);
  col->data.AppendI64(ts);
  return Status::OK();
}

Status KernelColChar(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(static_cast<size_t>(f.length)));
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  if (null) {
    col->data.resize(col->data.size() + static_cast<size_t>(f.length));  // zero-filled slot
  } else {
    col->data.AppendSlice(text);
  }
  return Status::OK();
}

/// CHAR wider than the CDW limit stages as VARCHAR: varlen cell, no padding.
Status KernelColCharVarlen(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                           QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(static_cast<size_t>(f.length)));
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  if (!null) col->data.AppendSlice(text);
  return Status::OK();
}

Status KernelColVarchar(const FieldPlan& f, ByteReader* body, bool null, ColumnSink* col,
                        QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadLengthPrefixed16());
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  if (!null) col->data.AppendSlice(text);
  return Status::OK();
}

/// Columnar kernel for a SOURCE layout field type (the cell it appends
/// follows the CDW mapping: BYTEINT widens to SMALLINT, CHAR wider than the
/// CDW limit stages as varlen).
ConversionPlan::ColumnKernel ColumnKernelFor(const types::TypeDesc& source_type) {
  switch (source_type.id) {
    case TypeId::kBoolean:
      return KernelColBoolean;
    case TypeId::kInt8:
      return KernelColInt8;
    case TypeId::kInt16:
      return KernelColInt16;
    case TypeId::kInt32:
      return KernelColInt32;
    case TypeId::kInt64:
      return KernelColInt64;
    case TypeId::kFloat64:
      return KernelColFloat64;
    case TypeId::kDecimal:
      return KernelColDecimal;
    case TypeId::kDate:
      return KernelColDate;
    case TypeId::kTimestamp:
      return KernelColTimestamp;
    case TypeId::kChar: {
      auto mapped = types::MapLegacyTypeToCdw(source_type);
      if (mapped.ok() && mapped.ValueOrDie().id == TypeId::kVarchar) {
        return KernelColCharVarlen;
      }
      return KernelColChar;
    }
    case TypeId::kVarchar:
      return KernelColVarchar;
  }
  return KernelColVarchar;  // unreachable: TypeId is exhaustive
}

}  // namespace

ColumnarChunkBuilder::ColumnarChunkBuilder(const std::vector<uint32_t>& target_widths)
    : cols_(target_widths.size()), pending_null_(target_widths.size(), 0) {
  for (size_t i = 0; i < target_widths.size(); ++i) cols_[i].fixed_width = target_widths[i];
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

void ConversionPlan::AttachBinaryStaging(const types::Schema& source_layout,
                                         const types::Schema& staging_schema) {
  staging_format_ = cdw::StagingFormat::kBinary;
  header_template_.clear();
  cdw::BuildBlockHeader(staging_schema, &header_template_);
  target_widths_.clear();
  target_widths_.reserve(staging_schema.num_fields());
  size_t fixed = 0;
  size_t nvarlen = 0;
  for (const auto& field : staging_schema.fields()) {
    auto w = static_cast<uint32_t>(cdw::BinaryFixedWidth(field.type.id, field.type.length));
    target_widths_.push_back(w);
    if (w == 0) {
      ++nvarlen;
    } else {
      fixed += w;
    }
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    fields_[i].col_kernel = ColumnKernelFor(source_layout.field(i).type);
  }
  per_row_binary_hint_ = fixed + 4 * nvarlen + (staging_schema.num_fields() + 7) / 8;
}

}  // namespace hyperq::core
