#include "hyperq/conversion_columnar.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "cdw/staging_binary.h"
#include "hyperq/conversion_text.h"
#include "hyperq/quality.h"
#include "legacy/errors.h"
#include "legacy/row_format.h"
#include "types/date.h"
#include "types/type_mapping.h"

/// \file conversion_columnar.cc
/// HQB1 columnar kernels and chunk drivers: the encode half of the binary
/// direct-pipe load path. One kernel per SOURCE TypeId decodes a field
/// straight off the chunk's ByteReader — exactly the wire bytes the CSV
/// kernels consume — and appends the typed staging value to the field's
/// ColumnSink. The drivers mirror the CSV drivers' chunk loop byte for byte
/// on the error side: identical RecordError codes/messages, per-record
/// rollback by truncation, vartext framing errors poisoning the chunk.

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

}  // namespace

ColumnKernelInfo ColumnKernelFor(const types::TypeDesc& source_type) {
  switch (source_type.id) {
    case TypeId::kBoolean:
      return {KernelColBoolean, 1};
    case TypeId::kInt8:
      return {KernelColInt8, 2};  // widened to SMALLINT in staging
    case TypeId::kInt16:
      return {KernelColInt16, 2};
    case TypeId::kInt32:
      return {KernelColInt32, 4};
    case TypeId::kInt64:
      return {KernelColInt64, 8};
    case TypeId::kFloat64:
      return {KernelColFloat64, 8};
    case TypeId::kDecimal:
      return {KernelColDecimal, 8};
    case TypeId::kDate:
      return {KernelColDate, 4};
    case TypeId::kTimestamp:
      return {KernelColTimestamp, 8};
    case TypeId::kChar: {
      auto mapped = types::MapLegacyTypeToCdw(source_type);
      if (mapped.ok() && mapped.ValueOrDie().id == TypeId::kVarchar) {
        return {KernelColCharVarlen, 0};
      }
      return {KernelColChar, static_cast<uint32_t>(source_type.length)};
    }
    case TypeId::kVarchar:
      return {KernelColVarchar, 0};
  }
  return {KernelColVarchar, 0};  // unreachable: TypeId is exhaustive
}

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
    ColumnKernelInfo info = ColumnKernelFor(source_layout.field(i).type);
    fields_[i].col_kernel = info.kernel;
    fields_[i].staging_width = info.staging_width;
  }
  per_row_binary_hint_ = fixed + 4 * nvarlen + (staging_schema.num_fields() + 7) / 8;
}

Status ConversionPlan::ExecuteColumnarBinary(const ConversionInput& input,
                                             ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  ColumnarChunkBuilder builder(target_widths_);
  const CompiledQuality* cq = quality_;
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  while (!reader.AtEnd()) {
    if (cq != nullptr) qs.BeginRow();
    Slice record;
    Status record_status = [&]() -> Status {
      HQ_ASSIGN_OR_RETURN(record, reader.ReadLengthPrefixed16());
      ByteReader body(record);
      HQ_ASSIGN_OR_RETURN(Slice indicators, body.ReadSlice(indicator_bytes_));
      for (size_t i = 0; i < fields_.size(); ++i) {
        const bool null = (indicators[i / 8] & (0x80u >> (i % 8))) != 0;
        if (null) builder.MarkNull(i);
        HQ_RETURN_NOT_OK(fields_[i].col_kernel(fields_[i], &body, null, builder.col(i), &qs));
      }
      if (!body.AtEnd()) {
        return Status::ProtocolError("trailing bytes in legacy binary record");
      }
      return Status::OK();
    }();
    if (!record_status.ok()) {
      // Positional decode: a bad record invalidates the rest of the chunk.
      builder.RollbackRow();
      out->errors.push_back(RecordError{row_number, legacy::kErrFormatViolation, "",
                                        record_status.message() +
                                            " (remainder of chunk skipped)"});
      break;
    }
    if (cq != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        // Record-atomic diversion: drop the staged cells and re-render the
        // record through the TEXT kernels into the quarantine CSV stream
        // (quarantine is always CSV diagnostics, even for HQB1 staging).
        // The re-render cannot fail — the same wire bytes just decoded —
        // and its redundant check-op output is row-local state already
        // merged by CommitRowStats, discarded at the next BeginRow.
        builder.RollbackRow();
        const size_t qmark = out->qrtn.size();
        Status rerender = BinaryBodyToCsv(record, row_number, &out->qrtn, &qs);
        if (rerender.ok()) {
          out->qrtn.resize(out->qrtn.size() - 1);  // suffix re-adds the '\n'
          out->qrtn.AppendString(cq->constraint(qs.row_id).csv_suffix);
          out->qrtn.AppendByte('\n');
          ++qs.rows_quarantined;
        } else {
          out->qrtn.resize(qmark);
        }
        ++row_number;
        continue;
      }
    }
    builder.CommitRow(row_number);
    ++out->rows_out;
    ++row_number;
  }
  const size_t capacity = out->csv.vector().capacity();
  builder.Finish(header_template_, &out->csv);
  if (out->csv.vector().capacity() != capacity) ++out->csv_reallocs;
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

Status ConversionPlan::ExecuteColumnarVartext(const ConversionInput& input,
                                              ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  const size_t expected = fields_.size();
  ColumnarChunkBuilder builder(target_widths_);
  const CompiledQuality* cq = quality_;
  // Raw pointer into the field table: vector::operator[] is an opaque call
  // in unoptimized builds, and this lookup sits inside the per-field split
  // loop (the bench-smoke quality-overhead gate measures that build).
  const FieldPlan* field_plans = fields_.data();
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  while (!reader.AtEnd()) {
    auto line = reader.ReadLengthPrefixed16();
    if (!line.ok()) {
      // A framing error poisons the rest of the chunk (reference semantics).
      if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
      return line.status().WithContext("chunk " + std::to_string(input.chunk.chunk_seq));
    }
    std::string_view text = line.ValueOrDie().ToStringView();
    // Pass 1: arity. Counting first means a short record stages nothing at
    // all — no rollback needed.
    size_t nfields = 1;
    for (char c : text) {
      if (c == legacy_delimiter_) ++nfields;
    }
    if (nfields != expected) {
      out->errors.push_back(
          RecordError{row_number, legacy::kErrFieldCountMismatch, "",
                      "vartext record has " + std::to_string(nfields) +
                          " fields, layout expects " + std::to_string(expected)});
      ++row_number;
      continue;
    }
    if (cq != nullptr) qs.BeginRow();
    // Pass 2: emit. Empty vartext field == NULL (legacy rule).
    size_t start = 0;
    size_t fidx = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == legacy_delimiter_) {
        // Unchecked construction: start <= i <= size() always holds, and
        // substr's bounds check would put __throw_out_of_range_fmt on the
        // hot path (hqcheck hotpath-symbol).
        const size_t flen = i - start;
        std::string_view field(text.data() + start, flen);
        // Vartext has no kernels: the quality check op runs fused into the
        // split loop (identical to the CSV vartext driver). The guard is the
        // checks pointer itself, so both gate modes pay the same branch.
        // Raw pointer+length arguments: string_view accessors are opaque
        // calls in unoptimized builds (the overhead gate's build).
        const QualityFieldChecks* checks = field_plans[fidx].checks;
        if (checks != nullptr) QcString(*checks, flen == 0, text.data() + start, flen, &qs);
        if (field.empty()) {
          builder.MarkNull(fidx);
        } else {
          builder.col(fidx)->data.AppendString(field);
        }
        ++fidx;
        start = i + 1;
      }
    }
    if (cq != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        // Drop the staged cells (nothing committed yet: RollbackRow also
        // clears the pending null marks) and re-emit the raw line as the
        // quarantine CSV record.
        builder.RollbackRow();
        size_t qstart = 0;
        size_t qidx = 0;
        for (size_t i = 0; i <= text.size(); ++i) {
          if (i == text.size() || text[i] == legacy_delimiter_) {
            if (qidx != 0) out->qrtn.AppendByte(static_cast<uint8_t>(csv_delimiter_));
            std::string_view field(text.data() + qstart, i - qstart);
            if (!field.empty()) {
              conversion_detail::AppendCsvText(field, csv_delimiter_, &out->qrtn);
            }
            ++qidx;
            qstart = i + 1;
          }
        }
        out->qrtn.AppendByte(static_cast<uint8_t>(csv_delimiter_));
        conversion_detail::AppendIntText(row_number, csv_delimiter_, &out->qrtn);
        out->qrtn.AppendString(cq->constraint(qs.row_id).csv_suffix);
        out->qrtn.AppendByte('\n');
        ++qs.rows_quarantined;
        ++row_number;
        continue;
      }
    }
    builder.CommitRow(row_number);
    ++out->rows_out;
    ++row_number;
  }
  const size_t capacity = out->csv.vector().capacity();
  builder.Finish(header_template_, &out->csv);
  if (out->csv.vector().capacity() != capacity) ++out->csv_reallocs;
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

Status ConversionPlan::ExecuteColumnarRemappedBinary(const ConversionInput& input,
                                                     ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  // Per-source-field scratch, reused across records: each holds the field's
  // typed staging cell bytes. The drift is type-stable (enforced at
  // CreateRemapped), so a matched source cell's bytes ARE the target cell's
  // bytes — distribution is a straight copy.
  std::vector<ColumnSink> scratch(fields_.size());
  for (size_t i = 0; i < fields_.size(); ++i) scratch[i].fixed_width = fields_[i].staging_width;
  std::vector<uint8_t> null_flags(fields_.size(), 0);
  ColumnarChunkBuilder builder(target_widths_);
  const CompiledQuality* cq = quality_;
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  // Per-source-field CSV text scratch for quarantine re-render, allocated
  // lazily on the first violating row (the clean path never touches it).
  std::vector<ByteBuffer> qrtn_text;
  while (!reader.AtEnd()) {
    if (cq != nullptr) qs.BeginRow();
    Slice record;
    Status record_status = [&]() -> Status {
      HQ_ASSIGN_OR_RETURN(record, reader.ReadLengthPrefixed16());
      ByteReader body(record);
      HQ_ASSIGN_OR_RETURN(Slice indicators, body.ReadSlice(indicator_bytes_));
      for (size_t i = 0; i < fields_.size(); ++i) {
        scratch[i].data.clear();
        const bool null = (indicators[i / 8] & (0x80u >> (i % 8))) != 0;
        null_flags[i] = null ? 1 : 0;
        HQ_RETURN_NOT_OK(fields_[i].col_kernel(fields_[i], &body, null, &scratch[i], &qs));
      }
      if (!body.AtEnd()) {
        return Status::ProtocolError("trailing bytes in legacy binary record");
      }
      return Status::OK();
    }();
    if (!record_status.ok()) {
      // Decode goes to scratch, so the builder holds no in-progress row and
      // nothing needs rolling back (same shape as the CSV remap path).
      out->errors.push_back(RecordError{row_number, legacy::kErrFormatViolation, "",
                                        record_status.message() +
                                            " (remainder of chunk skipped)"});
      break;
    }
    if (cq != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        // Nothing staged yet (decode went to scratch): re-decode the record
        // through the TEXT kernels into per-field text scratch and assemble
        // the quarantine CSV line in target order. Cannot fail — the same
        // wire bytes just decoded; redundant check output is row-local and
        // discarded at the next BeginRow.
        if (qrtn_text.empty()) qrtn_text.resize(fields_.size());
        ByteReader body(record);
        Status rerender = [&]() -> Status {
          HQ_RETURN_NOT_OK(body.ReadSlice(indicator_bytes_).status());
          for (size_t i = 0; i < fields_.size(); ++i) {
            qrtn_text[i].clear();
            HQ_RETURN_NOT_OK(
                fields_[i].kernel(fields_[i], &body, null_flags[i] != 0, &qrtn_text[i], &qs));
          }
          return Status::OK();
        }();
        if (rerender.ok()) {
          for (size_t t = 0; t < out_source_.size(); ++t) {
            if (t != 0) out->qrtn.AppendByte(static_cast<uint8_t>(csv_delimiter_));
            const int src = out_source_[t];
            if (src < 0 || null_flags[static_cast<size_t>(src)] != 0) continue;
            out->qrtn.AppendSlice(qrtn_text[static_cast<size_t>(src)].AsSlice());
          }
          out->qrtn.AppendByte(static_cast<uint8_t>(csv_delimiter_));
          conversion_detail::AppendIntText(row_number, csv_delimiter_, &out->qrtn);
          out->qrtn.AppendString(cq->constraint(qs.row_id).csv_suffix);
          out->qrtn.AppendByte('\n');
          ++qs.rows_quarantined;
        }
        ++row_number;
        continue;
      }
    }
    for (size_t t = 0; t < out_source_.size(); ++t) {
      const int src = out_source_[t];
      if (src < 0 || null_flags[static_cast<size_t>(src)] != 0) {
        builder.AppendNullCell(t);
        continue;
      }
      builder.col(t)->data.AppendSlice(scratch[static_cast<size_t>(src)].data.AsSlice());
    }
    builder.CommitRow(row_number);
    ++out->rows_out;
    ++row_number;
  }
  builder.Finish(header_template_, &out->csv);
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

Status ConversionPlan::ExecuteColumnarRemappedVartext(const ConversionInput& input,
                                                      ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  const size_t expected = fields_.size();
  std::vector<std::string_view> record_fields(expected);
  ColumnarChunkBuilder builder(target_widths_);
  const CompiledQuality* cq = quality_;
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  while (!reader.AtEnd()) {
    auto line = reader.ReadLengthPrefixed16();
    if (!line.ok()) {
      // A framing error poisons the rest of the chunk (reference semantics).
      if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
      return line.status().WithContext("chunk " + std::to_string(input.chunk.chunk_seq));
    }
    std::string_view text = line.ValueOrDie().ToStringView();
    size_t nfields = 0;
    size_t start = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == legacy_delimiter_) {
        // Unchecked construction: start <= i <= size() always holds.
        if (nfields < expected) {
          record_fields[nfields] = std::string_view(text.data() + start, i - start);
        }
        ++nfields;
        start = i + 1;
      }
    }
    if (nfields != expected) {
      out->errors.push_back(
          RecordError{row_number, legacy::kErrFieldCountMismatch, "",
                      "vartext record has " + std::to_string(nfields) +
                          " fields, layout expects " + std::to_string(expected)});
      ++row_number;
      continue;
    }
    if (cq != nullptr) {
      // Checks run over SOURCE fields (the wire record), as everywhere.
      qs.BeginRow();
      for (size_t i = 0; i < expected; ++i) {
        const QualityFieldChecks* checks = fields_[i].checks;
        if (checks != nullptr) {
          const std::string_view rf = record_fields[i];
          QcString(*checks, rf.empty(), rf.data(), rf.size(), &qs);
        }
      }
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        // Nothing staged yet: emit the quarantine CSV line in target order
        // straight from the split fields.
        for (size_t t = 0; t < out_source_.size(); ++t) {
          if (t != 0) out->qrtn.AppendByte(static_cast<uint8_t>(csv_delimiter_));
          const int src = out_source_[t];
          if (src < 0) continue;
          std::string_view field = record_fields[static_cast<size_t>(src)];
          if (!field.empty()) {
            conversion_detail::AppendCsvText(field, csv_delimiter_, &out->qrtn);
          }
        }
        out->qrtn.AppendByte(static_cast<uint8_t>(csv_delimiter_));
        conversion_detail::AppendIntText(row_number, csv_delimiter_, &out->qrtn);
        out->qrtn.AppendString(cq->constraint(qs.row_id).csv_suffix);
        out->qrtn.AppendByte('\n');
        ++qs.rows_quarantined;
        ++row_number;
        continue;
      }
    }
    for (size_t t = 0; t < out_source_.size(); ++t) {
      const int src = out_source_[t];
      if (src < 0) {
        builder.AppendNullCell(t);  // target field absent from the source
        continue;
      }
      std::string_view field = record_fields[static_cast<size_t>(src)];
      if (field.empty()) {
        builder.MarkNull(t);  // empty vartext field == NULL (legacy rule)
      } else {
        builder.col(t)->data.AppendString(field);
      }
    }
    builder.CommitRow(row_number);
    ++out->rows_out;
    ++row_number;
  }
  builder.Finish(header_template_, &out->csv);
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

}  // namespace hyperq::core
