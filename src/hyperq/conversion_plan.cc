#include "hyperq/conversion_plan.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "hyperq/conversion_text.h"
#include "hyperq/quality.h"
#include "legacy/errors.h"
#include "legacy/row_format.h"
#include "types/date.h"

namespace hyperq::core {

using common::ByteBuffer;
using common::ByteReader;
using common::Slice;
using common::Status;
using types::TypeId;

namespace {

// Mirrors the table in types/decimal.cc (kept private there on purpose: the
// plan replicates Decimal::ToString byte-for-byte without constructing one).
constexpr int64_t kPow10[] = {1LL,
                              10LL,
                              100LL,
                              1000LL,
                              10000LL,
                              100000LL,
                              1000000LL,
                              10000000LL,
                              100000000LL,
                              1000000000LL,
                              10000000000LL,
                              100000000000LL,
                              1000000000000LL,
                              10000000000000LL,
                              100000000000000LL,
                              1000000000000000LL,
                              10000000000000000LL,
                              100000000000000000LL,
                              1000000000000000000LL};

using conversion_detail::AppendCsvText;
using conversion_detail::AppendIntText;

void AppendFloatText(double v, char delimiter, ByteBuffer* out) {
  char buf[40];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  AppendCsvText(std::string_view(buf, static_cast<size_t>(n)), delimiter, out);
}

void AppendDecimalText(int64_t unscaled, int32_t scale, char delimiter, ByteBuffer* out) {
  // Byte-identical to types::Decimal::ToString without the heap strings.
  bool neg = unscaled < 0;
  uint64_t mag =
      neg ? static_cast<uint64_t>(-(unscaled + 1)) + 1 : static_cast<uint64_t>(unscaled);
  uint64_t pow = static_cast<uint64_t>(kPow10[scale]);
  uint64_t int_part = mag / pow;
  uint64_t frac_part = mag % pow;
  char buf[48];
  char* p = buf;
  if (neg) *p++ = '-';
  p = std::to_chars(p, buf + sizeof(buf), int_part).ptr;
  if (scale > 0) {
    *p++ = '.';
    char fbuf[24];
    auto fr = std::to_chars(fbuf, fbuf + sizeof(fbuf), frac_part);
    auto flen = static_cast<size_t>(fr.ptr - fbuf);
    for (size_t i = flen; i < static_cast<size_t>(scale); ++i) *p++ = '0';
    std::memcpy(p, fbuf, flen);
    p += flen;
  }
  AppendCsvText(std::string_view(buf, static_cast<size_t>(p - buf)), delimiter, out);
}

void AppendDateText(types::DateDays days, char delimiter, ByteBuffer* out) {
  types::YearMonthDay ymd = types::YmdFromDays(days);
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", ymd.year, ymd.month, ymd.day);
  AppendCsvText(std::string_view(buf, static_cast<size_t>(n)), delimiter, out);
}

void AppendTimestampText(types::TimestampMicros micros, char delimiter, ByteBuffer* out) {
  // Mirrors types::FormatTimestampIso including the negative-remainder fix.
  int64_t days = micros / 86400000000LL;
  int64_t rem = micros % 86400000000LL;
  if (rem < 0) {
    rem += 86400000000LL;
    --days;
  }
  types::YearMonthDay ymd = types::YmdFromDays(static_cast<types::DateDays>(days));
  int64_t secs = rem / 1000000LL;
  int64_t frac = rem % 1000000LL;
  char buf[48];
  int n = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%06d", ymd.year,
                        ymd.month, ymd.day, static_cast<int>(secs / 3600),
                        static_cast<int>((secs / 60) % 60), static_cast<int>(secs % 60),
                        static_cast<int>(frac));
  AppendCsvText(std::string_view(buf, static_cast<size_t>(n)), delimiter, out);
}

using FieldPlan = ConversionPlan::FieldPlan;

Status KernelBoolean(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(uint8_t b, body->ReadByte());
  if (f.checks != nullptr) QcPresence(*f.checks, null, q);
  if (!null) AppendCsvText(b != 0 ? "1" : "0", f.csv_delimiter, out);
  return Status::OK();
}

Status KernelInt8(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int8_t v, body->ReadI8());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (!null) AppendIntText<int32_t>(v, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelInt16(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int16_t v, body->ReadI16());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (!null) AppendIntText<int32_t>(v, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelInt32(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t v, body->ReadI32());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (!null) AppendIntText(v, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelInt64(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t v, body->ReadI64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (!null) AppendIntText(v, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelFloat64(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(double v, body->ReadF64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, v, q);
  if (!null) AppendFloatText(v, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelDecimal(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t unscaled, body->ReadI64());
  // Quality range bounds are pre-scaled to unscaled units at compile.
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(unscaled), q);
  if (!null) AppendDecimalText(unscaled, f.scale, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelDate(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t enc, body->ReadI32());
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::DateDays days, legacy::LegacyDateDecode(enc));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(days), q);
  AppendDateText(days, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelTimestamp(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                       QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(legacy::kLegacyTimestampWidth));
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts, types::ParseTimestampIso(text.ToStringView()));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(ts), q);
  AppendTimestampText(ts, f.csv_delimiter, out);
  return Status::OK();
}

Status KernelChar(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(static_cast<size_t>(f.length)));
  // CHAR is checked as wired, blank padding included (documented in quality.h).
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  if (!null) AppendCsvText(text.ToStringView(), f.csv_delimiter, out);
  return Status::OK();
}

Status KernelVarchar(const FieldPlan& f, ByteReader* body, bool null, ByteBuffer* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadLengthPrefixed16());
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  if (!null) AppendCsvText(text.ToStringView(), f.csv_delimiter, out);
  return Status::OK();
}

struct KernelInfo {
  ConversionPlan::FieldKernel kernel;
  uint32_t width_hint;
};

KernelInfo KernelFor(const types::TypeDesc& type) {
  switch (type.id) {
    case TypeId::kBoolean:
      return {KernelBoolean, 1};
    case TypeId::kInt8:
      return {KernelInt8, 4};
    case TypeId::kInt16:
      return {KernelInt16, 6};
    case TypeId::kInt32:
      return {KernelInt32, 11};
    case TypeId::kInt64:
      return {KernelInt64, 20};
    case TypeId::kFloat64:
      return {KernelFloat64, 24};
    case TypeId::kDecimal:
      return {KernelDecimal, 21};
    case TypeId::kDate:
      return {KernelDate, 10};
    case TypeId::kTimestamp:
      return {KernelTimestamp, 26};
    case TypeId::kChar:
      return {KernelChar, static_cast<uint32_t>(type.length) + 2};
    case TypeId::kVarchar:
      return {KernelVarchar, 0};  // content rides in the payload bytes
  }
  return {KernelVarchar, 0};  // unreachable: TypeId is exhaustive
}

/// Worst-case width of the trailing ",HQ_ROWNUM\n" suffix.
constexpr size_t kRowNumSuffixHint = 22;

}  // namespace

ConversionPlan ConversionPlan::Compile(const types::Schema& layout, legacy::DataFormat format,
                                       char legacy_delimiter, cdw::CsvOptions csv_options,
                                       cdw::StagingFormat staging_format,
                                       const types::Schema* staging_schema) {
  ConversionPlan plan;
  plan.format_ = format;
  plan.legacy_delimiter_ = legacy_delimiter;
  plan.csv_delimiter_ = csv_options.delimiter;
  plan.indicator_bytes_ = (layout.num_fields() + 7) / 8;
  plan.fields_.reserve(layout.num_fields());
  size_t fixed = 0;
  for (const auto& field : layout.fields()) {
    KernelInfo info = KernelFor(field.type);
    FieldPlan fp;
    fp.kernel = info.kernel;
    fp.scale = field.type.scale;
    fp.length = field.type.length;
    fp.width_hint = info.width_hint;
    fp.csv_delimiter = csv_options.delimiter;
    plan.fields_.push_back(fp);
    fixed += info.width_hint;
    if (field.type.id == TypeId::kVarchar) plan.has_varwidth_ = true;
  }
  plan.per_row_hint_ = fixed + layout.num_fields() + kRowNumSuffixHint;
  if (staging_format == cdw::StagingFormat::kBinary && staging_schema != nullptr) {
    plan.AttachBinaryStaging(layout, *staging_schema);
  }
  return plan;
}

size_t ConversionPlan::EstimateCsvBytes(uint32_t row_count, size_t payload_bytes) const {
  size_t estimate;
  if (format_ == legacy::DataFormat::kVartext) {
    // Text is payload-carried; budget for quoting expansion plus the
    // per-record rownum suffix.
    estimate = payload_bytes + payload_bytes / 4 + row_count * kRowNumSuffixHint + 64;
  } else {
    estimate = static_cast<size_t>(row_count) * per_row_hint_ +
               (has_varwidth_ ? payload_bytes : 0) + 64;
  }
  // Chunk headers may carry row_count == 0; never reserve below the old
  // payload-proportional floor.
  return std::max(estimate, payload_bytes + payload_bytes / 8);
}

size_t ConversionPlan::EstimateStagingBytes(uint32_t row_count, size_t payload_bytes) const {
  if (staging_format_ != cdw::StagingFormat::kBinary) {
    return EstimateCsvBytes(row_count, payload_bytes);
  }
  const bool payload_carried = has_varwidth_ || format_ == legacy::DataFormat::kVartext;
  size_t estimate = header_template_.size() +
                    static_cast<size_t>(row_count) * per_row_binary_hint_ +
                    (payload_carried ? payload_bytes : 0) + 64;
  return std::max(estimate, payload_bytes + payload_bytes / 8);
}

Status ConversionPlan::BinaryBodyToCsv(Slice record, uint64_t row_number, ByteBuffer* out,
                                       QualityScratch* q) const {
  ByteReader body(record);
  HQ_ASSIGN_OR_RETURN(Slice indicators, body.ReadSlice(indicator_bytes_));
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out->AppendByte(static_cast<uint8_t>(csv_delimiter_));
    const bool null = (indicators[i / 8] & (0x80u >> (i % 8))) != 0;
    HQ_RETURN_NOT_OK(fields_[i].kernel(fields_[i], &body, null, out, q));
  }
  if (!body.AtEnd()) {
    return Status::ProtocolError("trailing bytes in legacy binary record");
  }
  out->AppendByte(static_cast<uint8_t>(csv_delimiter_));
  AppendIntText(row_number, csv_delimiter_, out);
  out->AppendByte('\n');
  return Status::OK();
}

Status ConversionPlan::BinaryRecordToCsv(ByteReader* reader, uint64_t row_number,
                                         ByteBuffer* out, QualityScratch* q) const {
  HQ_ASSIGN_OR_RETURN(Slice record, reader->ReadLengthPrefixed16());
  return BinaryBodyToCsv(record, row_number, out, q);
}

Status ConversionPlan::ExecuteBinary(const ConversionInput& input, ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  size_t capacity = out->csv.vector().capacity();
  const CompiledQuality* cq = quality_;
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  while (!reader.AtEnd()) {
    const size_t mark = out->csv.size();
    if (cq != nullptr) qs.BeginRow();
    Status s = BinaryRecordToCsv(&reader, row_number, &out->csv, &qs);
    if (!s.ok()) {
      // Binary decode is positional: a bad record invalidates the rest of
      // the chunk payload. Roll back the partially-emitted record.
      out->csv.resize(mark);
      out->errors.push_back(RecordError{row_number, legacy::kErrFormatViolation, "",
                                        s.message() + " (remainder of chunk skipped)"});
      break;
    }
    if (cq != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        // Record-atomic diversion: the emitted line moves to the quarantine
        // stream with its reason tail; the staging output rolls back.
        QcQuarantineCsvRow(*cq, &qs, &out->csv, mark, &out->qrtn);
        ++row_number;
        continue;
      }
    }
    ++out->rows_out;
    ++row_number;
    if (out->csv.vector().capacity() != capacity) {
      capacity = out->csv.vector().capacity();
      ++out->csv_reallocs;
    }
  }
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

Status ConversionPlan::ExecuteVartext(const ConversionInput& input, ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  const size_t expected = fields_.size();
  size_t capacity = out->csv.vector().capacity();
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
    const char* text_data = text.data();
    const size_t mark = out->csv.size();
    if (cq != nullptr) qs.BeginRow();
    size_t nfields = 0;
    size_t start = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == legacy_delimiter_) {
        if (nfields != 0) out->csv.AppendByte(static_cast<uint8_t>(csv_delimiter_));
        // Unchecked construction: start <= i <= size() always holds, and
        // substr's bounds check would put __throw_out_of_range_fmt on the
        // hot path (hqcheck hotpath-symbol).
        const size_t flen = i - start;
        std::string_view field(text_data + start, flen);
        // Vartext has no kernels: the quality check op runs fused into the
        // split loop. Like the columnar kernels, the guard is the checks
        // pointer itself (nullptr on every field when the gate is off), so
        // both gate modes pay the same predicted branch. Raw pointer+length
        // arguments: string_view accessors are opaque calls in unoptimized
        // builds (the overhead gate's build).
        if (nfields < expected) {
          const QualityFieldChecks* checks = field_plans[nfields].checks;
          if (checks != nullptr) QcString(*checks, flen == 0, text_data + start, flen, &qs);
        }
        // Empty vartext field == NULL (legacy rule): emit nothing.
        if (!field.empty()) AppendCsvText(field, csv_delimiter_, &out->csv);
        ++nfields;
        start = i + 1;
      }
    }
    if (nfields != expected) {
      out->csv.resize(mark);
      out->errors.push_back(
          RecordError{row_number, legacy::kErrFieldCountMismatch, "",
                      "vartext record has " + std::to_string(nfields) +
                          " fields, layout expects " + std::to_string(expected)});
      ++row_number;
      continue;
    }
    out->csv.AppendByte(static_cast<uint8_t>(csv_delimiter_));
    AppendIntText(row_number, csv_delimiter_, &out->csv);
    out->csv.AppendByte('\n');
    if (cq != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        QcQuarantineCsvRow(*cq, &qs, &out->csv, mark, &out->qrtn);
        ++row_number;
        continue;
      }
    }
    ++out->rows_out;
    ++row_number;
    if (out->csv.vector().capacity() != capacity) {
      capacity = out->csv.vector().capacity();
      ++out->csv_reallocs;
    }
  }
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

void ConversionPlan::AttachQuality(const CompiledQuality* quality) {
  quality_ = quality;
  for (size_t i = 0; i < fields_.size(); ++i) {
    fields_[i].checks =
        quality != nullptr && i < quality->num_fields() ? quality->field_checks(i) : nullptr;
  }
}

Status ConversionPlan::Execute(const ConversionInput& input, ConvertedChunk* out) const {
  out->order_index = input.order_index;
  out->first_row_number = input.first_row_number;
  out->rows_in = input.chunk.row_count;
  if (staging_format_ == cdw::StagingFormat::kBinary) {
    if (remapped_) {
      if (format_ == legacy::DataFormat::kVartext) return ExecuteColumnarRemappedVartext(input, out);
      return ExecuteColumnarRemappedBinary(input, out);
    }
    if (format_ == legacy::DataFormat::kVartext) return ExecuteColumnarVartext(input, out);
    return ExecuteColumnarBinary(input, out);
  }
  if (remapped_) {
    if (format_ == legacy::DataFormat::kVartext) return ExecuteRemappedVartext(input, out);
    return ExecuteRemappedBinary(input, out);
  }
  if (format_ == legacy::DataFormat::kVartext) return ExecuteVartext(input, out);
  return ExecuteBinary(input, out);
}

}  // namespace hyperq::core
