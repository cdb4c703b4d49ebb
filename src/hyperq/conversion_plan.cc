#include "hyperq/conversion_plan.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "hyperq/conversion_columnar.h"
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

/// Appends one non-NULL CSV field with exactly EncodeCsvRecord's escaping:
/// empty strings are quoted (to stay distinct from NULL), and any text
/// containing the delimiter, '"', '\n' or '\r' is quoted with '"' doubled.
void AppendCsvText(std::string_view text, char delimiter, ByteBuffer* out) {
  bool needs_quotes = text.empty();
  for (char c : text) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out->AppendString(text);
    return;
  }
  out->AppendByte('"');
  // Emit runs ending at each '"' inclusive, then restart the next run AT the
  // quote so it is emitted twice ("" escape) without per-character appends.
  // Unchecked string_view construction instead of substr(): run <= i < size
  // always holds, and substr's pos>size bounds check would compile
  // __throw_out_of_range_fmt into the hot loop (caught by hqcheck's
  // hotpath-symbol proof).
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      out->AppendString(std::string_view(text.data() + run, i - run + 1));
      run = i;
    }
  }
  out->AppendString(std::string_view(text.data() + run, text.size() - run));
  out->AppendByte('"');
}

template <typename Int>
void AppendIntText(Int v, char delimiter, ByteBuffer* out) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  AppendCsvText(std::string_view(buf, static_cast<size_t>(r.ptr - buf)), delimiter, out);
}

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

// The two staging encoders. A field kernel decodes its wire cell and hands
// the value, with the field's NULL indicator, to one of them; each kernel is
// a template over the encoder and is instantiated once per staging family,
// so no cell branches on the staging format.

/// CSV staging: escaped text through the Append*Text helpers; a NULL cell
/// appends nothing.
struct CsvEncoder {
  using Out = ByteBuffer;
  static void Boolean(const FieldPlan& f, bool null, uint8_t b, Out* out) {
    if (!null) AppendCsvText(b != 0 ? "1" : "0", f.csv_delimiter, out);
  }
  template <typename Int>
  static void Integer(const FieldPlan& f, bool null, Int v, Out* out) {
    if (!null) AppendIntText<std::common_type_t<Int, int32_t>>(v, f.csv_delimiter, out);
  }
  static void Float64(const FieldPlan& f, bool null, double v, Out* out) {
    if (!null) AppendFloatText(v, f.csv_delimiter, out);
  }
  static void Decimal(const FieldPlan& f, bool null, int64_t unscaled, Out* out) {
    if (!null) AppendDecimalText(unscaled, f.scale, f.csv_delimiter, out);
  }
  static void Date(const FieldPlan& f, bool null, types::DateDays days, Out* out) {
    if (!null) AppendDateText(days, f.csv_delimiter, out);
  }
  static void Timestamp(const FieldPlan& f, bool null, types::TimestampMicros ts, Out* out) {
    if (!null) AppendTimestampText(ts, f.csv_delimiter, out);
  }
  static void Char(const FieldPlan& f, bool null, Slice text, Out* out) {
    if (!null) AppendCsvText(text.ToStringView(), f.csv_delimiter, out);
  }
  static void Varchar(const FieldPlan& f, bool null, Slice text, Out* out) {
    Char(f, null, text, out);
  }
};

/// HQB1 staging: the little-endian staging cell goes to the field's
/// ColumnSink, already widened to the CDW-mapped staging type. A NULL cell
/// is the zero-filled fixed slot (nothing for varlen); the caller owns the
/// null bitmap.
struct Hqb1Encoder {
  using Out = ColumnSink;
  static void Boolean(const FieldPlan& /*f*/, bool null, uint8_t b, Out* col) {
    col->data.AppendByte(null ? 0 : (b != 0 ? 1 : 0));
  }
  /// BYTEINT stages as SMALLINT (the CDW has no 1-byte integer).
  template <typename Int>
  static void Integer(const FieldPlan& /*f*/, bool null, Int v, Out* col) {
    if constexpr (sizeof(Int) <= 2) {
      col->data.AppendI16(null ? 0 : v);
    } else if constexpr (sizeof(Int) == 4) {
      col->data.AppendI32(null ? 0 : v);
    } else {
      col->data.AppendI64(null ? 0 : v);
    }
  }
  static void Float64(const FieldPlan& /*f*/, bool null, double v, Out* col) {
    col->data.AppendF64(null ? 0.0 : v);
  }
  static void Decimal(const FieldPlan& /*f*/, bool null, int64_t unscaled, Out* col) {
    col->data.AppendI64(null ? 0 : unscaled);
  }
  static void Date(const FieldPlan& /*f*/, bool null, types::DateDays days, Out* col) {
    col->data.AppendI32(null ? 0 : days);
  }
  static void Timestamp(const FieldPlan& /*f*/, bool null, types::TimestampMicros ts, Out* col) {
    col->data.AppendI64(null ? 0 : ts);
  }
  /// The sink's width says how CHAR stages: a fixed slot up to the CDW's
  /// CHAR limit, a varlen cell (width 0) beyond it, as for VARCHAR.
  static void Char(const FieldPlan& /*f*/, bool null, Slice text, Out* col) {
    if (null) {
      col->data.resize(col->data.size() + col->fixed_width);  // zero-filled slot
    } else {
      col->data.AppendSlice(text);
    }
  }
  static void Varchar(const FieldPlan& /*f*/, bool null, Slice text, Out* col) {
    if (!null) col->data.AppendSlice(text);
  }
};

template <typename Enc>
Status KernelBoolean(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(uint8_t b, body->ReadByte());
  if (f.checks != nullptr) QcPresence(*f.checks, null, q);
  Enc::Boolean(f, null, b, out);
  return Status::OK();
}

template <typename Enc>
Status KernelInt8(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int8_t v, body->ReadI8());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  Enc::Integer(f, null, v, out);
  return Status::OK();
}

template <typename Enc>
Status KernelInt16(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int16_t v, body->ReadI16());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  Enc::Integer(f, null, v, out);
  return Status::OK();
}

template <typename Enc>
Status KernelInt32(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t v, body->ReadI32());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  Enc::Integer(f, null, v, out);
  return Status::OK();
}

template <typename Enc>
Status KernelInt64(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t v, body->ReadI64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  Enc::Integer(f, null, v, out);
  return Status::OK();
}

template <typename Enc>
Status KernelFloat64(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(double v, body->ReadF64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, v, q);
  Enc::Float64(f, null, v, out);
  return Status::OK();
}

template <typename Enc>
Status KernelDecimal(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t unscaled, body->ReadI64());
  // Quality range bounds are pre-scaled to unscaled units at compile.
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(unscaled), q);
  Enc::Decimal(f, null, unscaled, out);
  return Status::OK();
}

/// A NULL DATE or TIMESTAMP is not decoded: its wire slot carries filler.
template <typename Enc>
Status KernelDate(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t enc, body->ReadI32());
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    Enc::Date(f, true, 0, out);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::DateDays days, legacy::LegacyDateDecode(enc));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(days), q);
  Enc::Date(f, false, days, out);
  return Status::OK();
}

template <typename Enc>
Status KernelTimestamp(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                       QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(legacy::kLegacyTimestampWidth));
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    Enc::Timestamp(f, true, 0, out);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts, types::ParseTimestampIso(text.ToStringView()));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(ts), q);
  Enc::Timestamp(f, false, ts, out);
  return Status::OK();
}

template <typename Enc>
Status KernelChar(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(static_cast<size_t>(f.length)));
  // CHAR is checked as wired, blank padding included (documented in quality.h).
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  Enc::Char(f, null, text, out);
  return Status::OK();
}

template <typename Enc>
Status KernelVarchar(const FieldPlan& f, ByteReader* body, bool null, typename Enc::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadLengthPrefixed16());
  if (f.checks != nullptr) QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  Enc::Varchar(f, null, text, out);
  return Status::OK();
}

struct KernelInfo {
  ConversionPlan::FieldKernel kernel;
  ConversionPlan::ColumnKernel col_kernel;
  uint32_t width_hint;
};

KernelInfo KernelFor(const types::TypeDesc& type) {
  switch (type.id) {
    case TypeId::kBoolean:
      return {KernelBoolean<CsvEncoder>, KernelBoolean<Hqb1Encoder>, 1};
    case TypeId::kInt8:
      return {KernelInt8<CsvEncoder>, KernelInt8<Hqb1Encoder>, 4};
    case TypeId::kInt16:
      return {KernelInt16<CsvEncoder>, KernelInt16<Hqb1Encoder>, 6};
    case TypeId::kInt32:
      return {KernelInt32<CsvEncoder>, KernelInt32<Hqb1Encoder>, 11};
    case TypeId::kInt64:
      return {KernelInt64<CsvEncoder>, KernelInt64<Hqb1Encoder>, 20};
    case TypeId::kFloat64:
      return {KernelFloat64<CsvEncoder>, KernelFloat64<Hqb1Encoder>, 24};
    case TypeId::kDecimal:
      return {KernelDecimal<CsvEncoder>, KernelDecimal<Hqb1Encoder>, 21};
    case TypeId::kDate:
      return {KernelDate<CsvEncoder>, KernelDate<Hqb1Encoder>, 10};
    case TypeId::kTimestamp:
      return {KernelTimestamp<CsvEncoder>, KernelTimestamp<Hqb1Encoder>, 26};
    case TypeId::kChar:
      return {KernelChar<CsvEncoder>, KernelChar<Hqb1Encoder>,
              static_cast<uint32_t>(type.length) + 2};
    case TypeId::kVarchar:
      // Content rides in the payload bytes.
      return {KernelVarchar<CsvEncoder>, KernelVarchar<Hqb1Encoder>, 0};
  }
  // Unreachable: TypeId is exhaustive.
  return {KernelVarchar<CsvEncoder>, KernelVarchar<Hqb1Encoder>, 0};
}

/// Worst-case width of the trailing ",HQ_ROWNUM\n" suffix.
constexpr size_t kRowNumSuffixHint = 22;

/// Vartext records of up to this many fields split into a stack array; wider
/// layouts take one vector per chunk.
constexpr size_t kInlineVartextFields = 64;

/// Swaps the '\n' of a record just rendered at the end of the quarantine
/// stream for the row's reason tail.
void SealQuarantineRow(const CompiledQuality& cq, QualityScratch* q, ByteBuffer* qrtn) {
  qrtn->resize(qrtn->size() - 1);
  qrtn->AppendString(cq.constraint(q->row_id).csv_suffix);
  qrtn->AppendByte('\n');
  ++q->rows_quarantined;
}

/// Counts a growth of the staging buffer beyond its last capacity (the
/// realloc counter that shows the size estimate is wrong).
void CountRealloc(ConvertedChunk* out, size_t* capacity) {
  if (out->csv.vector().capacity() != *capacity) {
    *capacity = out->csv.vector().capacity();
    ++out->csv_reallocs;
  }
}

}  // namespace

ConversionPlan ConversionPlan::Compile(const types::Schema& source_layout,
                                       const types::Schema& target_layout,
                                       legacy::DataFormat format, char legacy_delimiter,
                                       cdw::CsvOptions csv_options,
                                       cdw::StagingFormat staging_format,
                                       const types::Schema* staging_schema) {
  // Kernels, indicator width and size hints all describe the SOURCE layout:
  // that is what arrives on the wire.
  ConversionPlan plan;
  const size_t nsource = source_layout.num_fields();
  plan.format_ = format;
  plan.legacy_delimiter_ = legacy_delimiter;
  plan.csv_delimiter_ = csv_options.delimiter;
  plan.indicator_bytes_ = (nsource + 7) / 8;
  plan.fields_.reserve(nsource);
  size_t fixed = 0;
  for (const auto& field : source_layout.fields()) {
    KernelInfo info = KernelFor(field.type);
    FieldPlan fp;
    fp.kernel = info.kernel;
    fp.col_kernel = info.col_kernel;
    fp.scale = field.type.scale;
    fp.length = field.type.length;
    fp.width_hint = info.width_hint;
    fp.csv_delimiter = csv_options.delimiter;
    plan.fields_.push_back(fp);
    fixed += info.width_hint;
    if (field.type.id == TypeId::kVarchar) plan.has_varwidth_ = true;
  }
  plan.per_row_hint_ = fixed + nsource + kRowNumSuffixHint;

  // Slot maps: the identity unless the layout drifted, then name-matched.
  plan.remapped_ = !(source_layout == target_layout);
  plan.slot_of_source_.assign(nsource, kDroppedField);
  for (size_t t = 0; t < target_layout.num_fields(); ++t) {
    const int src = plan.remapped_ ? source_layout.FieldIndex(target_layout.field(t).name)
                                   : static_cast<int>(t);
    if (src < 0) {
      plan.out_source_.push_back(static_cast<uint32_t>(nsource));
      plan.nulled_slots_.push_back(static_cast<uint32_t>(t));
      continue;
    }
    plan.out_source_.push_back(static_cast<uint32_t>(src));
    plan.slot_of_source_[static_cast<size_t>(src)] = static_cast<uint32_t>(t);
  }
  for (const auto& field : source_layout.fields()) {
    if (target_layout.FieldIndex(field.name) < 0) ++plan.dropped_sources_;
  }
  if (staging_format == cdw::StagingFormat::kBinary && staging_schema != nullptr) {
    // Kernels come from the SOURCE layout, block headers and column widths
    // from the TARGET staging schema (what the staging table was created
    // from).
    plan.AttachBinaryStaging(*staging_schema);
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

template <typename EmitField>
Status ConversionPlan::ForEachBinaryField(Slice record, EmitField&& emit) const {
  ByteReader body(record);
  HQ_ASSIGN_OR_RETURN(Slice indicators, body.ReadSlice(indicator_bytes_));
  for (size_t i = 0; i < fields_.size(); ++i) {
    const bool null = (indicators[i / 8] & (0x80u >> (i % 8))) != 0;
    HQ_RETURN_NOT_OK(emit(i, null, &body));
  }
  if (!body.AtEnd()) {
    return Status::ProtocolError("trailing bytes in legacy binary record");
  }
  return Status::OK();
}

Status ConversionPlan::BinaryRecordToCsv(Slice record, uint64_t row_number, ByteBuffer* out,
                                         QualityScratch* q,
                                         std::vector<ByteBuffer>* scratch) const {
  const auto delimiter = static_cast<uint8_t>(csv_delimiter_);
  if (!remapped_) {
    HQ_RETURN_NOT_OK(ForEachBinaryField(record, [&](size_t i, bool null, ByteReader* body) {
      if (i != 0) out->AppendByte(delimiter);
      return fields_[i].kernel(fields_[i], body, null, out, q);
    }));
  } else {
    // Drift: each source field's escaped text goes to its own scratch
    // buffer (empty <=> NULL, since non-NULL empty strings escape to `""`),
    // then the line is assembled in target order. The extra last buffer
    // stays empty: it is the slot nulled targets map to.
    if (scratch->empty()) scratch->resize(fields_.size() + 1);
    ByteBuffer* text = scratch->data();
    HQ_RETURN_NOT_OK(ForEachBinaryField(record, [&](size_t i, bool null, ByteReader* body) {
      text[i].clear();
      return fields_[i].kernel(fields_[i], body, null, &text[i], q);
    }));
    for (size_t t = 0; t < out_source_.size(); ++t) {
      if (t != 0) out->AppendByte(delimiter);
      out->AppendSlice(text[out_source_[t]].AsSlice());
    }
  }
  out->AppendByte(delimiter);
  AppendIntText(row_number, csv_delimiter_, out);
  out->AppendByte('\n');
  return Status::OK();
}

void ConversionPlan::VartextRecordToCsv(const std::string_view* fields, uint64_t row_number,
                                        ByteBuffer* out) const {
  // Locals, not members: AppendCsvText is an opaque call, after which the
  // compiler would reload every member it reads.
  const char delimiter = csv_delimiter_;
  const uint32_t* source_of = out_source_.data();
  const size_t ntarget = out_source_.size();
  for (size_t t = 0; t < ntarget; ++t) {
    if (t != 0) out->AppendByte(static_cast<uint8_t>(delimiter));
    // Empty vartext field == NULL (legacy rule): emit nothing.
    const std::string_view field = fields[source_of[t]];
    if (!field.empty()) AppendCsvText(field, delimiter, out);
  }
  out->AppendByte(static_cast<uint8_t>(delimiter));
  AppendIntText(row_number, delimiter, out);
  out->AppendByte('\n');
}

/// CSV staging: a record's escaped text goes straight to the chunk's output
/// (per-field scratch only under drift). Staging is all-or-nothing, and a
/// quarantined row moves from the output to the quarantine stream.
class ConversionPlan::CsvSink {
 public:
  CsvSink(const ConversionPlan& plan, ConvertedChunk* out) : plan_(plan), csv_(&out->csv) {}

  Status StageBinary(Slice record, uint64_t row_number, QualityScratch* q) {
    mark_ = csv_->size();
    Status s = plan_.BinaryRecordToCsv(record, row_number, csv_, q, &text_scratch_);
    if (!s.ok()) csv_->resize(mark_);
    return s;
  }
  void StageVartext(const std::string_view* fields, uint64_t row_number) {
    plan_.VartextRecordToCsv(fields, row_number, csv_);
  }
  void Commit(uint64_t /*row_number*/) {}
  void Quarantine(Slice /*record*/, uint64_t /*row_number*/, const CompiledQuality& cq,
                  QualityScratch* q, ByteBuffer* qrtn) {
    QcQuarantineCsvRow(cq, q, csv_, mark_, qrtn);
  }
  void Finish(ConvertedChunk* /*out*/) {}

 private:
  const ConversionPlan& plan_;
  ByteBuffer* csv_;
  size_t mark_ = 0;
  std::vector<ByteBuffer> text_scratch_;  ///< drifted layouts only
};

/// HQB1 staging: source field i lands as a typed cell straight in column
/// slot_of_source_[i] (a dropped field in a discard column, a nulled target
/// as AppendNullCell), so drift needs no per-field scratch. Staging is
/// all-or-nothing; a quarantined row is re-rendered through the CSV
/// kernels, since the quarantine stream is always CSV.
class ConversionPlan::Hqb1Sink {
 public:
  /// Sized for `input` up front: a chunk's varlen cell bytes cannot exceed
  /// its payload bytes.
  Hqb1Sink(const ConversionPlan& plan, const ConversionInput& input)
      : plan_(plan), builder_(plan.target_widths_) {
    builder_.Reserve(input.chunk.row_count, input.chunk.payload.size(), plan.varlen_lengths_);
  }

  Status StageBinary(Slice record, uint64_t /*row_number*/, QualityScratch* q) {
    discard_.data.clear();
    Status s = plan_.ForEachBinaryField(record, [&](size_t i, bool null, ByteReader* body) {
      const FieldPlan& f = plan_.fields_[i];
      const uint32_t slot = plan_.slot_of_source_[i];
      ColumnSink* col = &discard_;
      if (slot != kDroppedField) {
        col = builder_.col(slot);
        if (null) builder_.MarkNull(slot);
      }
      return f.col_kernel(f, body, null, col, q);
    });
    if (!s.ok()) {
      builder_.RollbackRow();
      return s;
    }
    for (uint32_t t : plan_.nulled_slots_) builder_.AppendNullCell(t);
    return Status::OK();
  }
  void StageVartext(const std::string_view* fields, uint64_t /*row_number*/) {
    for (size_t t = 0; t < plan_.out_source_.size(); ++t) {
      const std::string_view field = fields[plan_.out_source_[t]];
      if (field.empty()) {
        builder_.AppendNullCell(t);  // empty vartext field == NULL (legacy rule)
      } else {
        builder_.col(t)->data.AppendString(field);
      }
    }
  }
  void Commit(uint64_t row_number) { builder_.CommitRow(row_number); }
  void Quarantine(Slice record, uint64_t row_number, const CompiledQuality& cq,
                  QualityScratch* q, ByteBuffer* qrtn) {
    builder_.RollbackRow();
    // The re-render cannot fail — the same wire bytes just decoded — and
    // its redundant check-op output is row-local state already merged by
    // CommitRowStats, discarded at the next BeginRow.
    const size_t mark = qrtn->size();
    if (!plan_.BinaryRecordToCsv(record, row_number, qrtn, q, &text_scratch_).ok()) {
      qrtn->resize(mark);
      return;
    }
    SealQuarantineRow(cq, q, qrtn);
  }
  void Finish(ConvertedChunk* out) { builder_.Finish(plan_.header_template_, &out->csv); }

 private:
  const ConversionPlan& plan_;
  ColumnarChunkBuilder builder_;
  ColumnSink discard_;                    ///< cells of dropped source fields
  std::vector<ByteBuffer> text_scratch_;  ///< drifted quarantine re-render only
};

template <typename Sink>
Status ConversionPlan::ConvertBinaryChunk(const ConversionInput& input, ConvertedChunk* out,
                                          Sink* sink) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  size_t capacity = out->csv.vector().capacity();
  const CompiledQuality* cq = quality_;
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  while (!reader.AtEnd()) {
    if (cq != nullptr) qs.BeginRow();
    auto record = reader.ReadLengthPrefixed16();
    Status s = record.ok() ? sink->StageBinary(*record, row_number, &qs) : record.status();
    if (!s.ok()) {
      // Binary decode is positional: a bad record invalidates the rest of
      // the chunk payload (the sink staged nothing of it).
      out->errors.push_back(RecordError{row_number, legacy::kErrFormatViolation, "",
                                        s.message() + " (remainder of chunk skipped)"});
      break;
    }
    if (cq != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        // Record-atomic diversion into the quarantine stream.
        sink->Quarantine(*record, row_number, *cq, &qs, &out->qrtn);
        ++row_number;
        continue;
      }
    }
    sink->Commit(row_number);
    ++out->rows_out;
    ++row_number;
    CountRealloc(out, &capacity);
  }
  sink->Finish(out);
  CountRealloc(out, &capacity);
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return Status::OK();
}

template <typename Sink>
Status ConversionPlan::ConvertVartextChunk(const ConversionInput& input, ConvertedChunk* out,
                                           Sink* sink) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  size_t capacity = out->csv.vector().capacity();
  const size_t expected = fields_.size();
  // The record's fields in source order, then the always-empty slot that
  // nulled targets map to.
  std::string_view inline_fields[kInlineVartextFields];
  std::vector<std::string_view> wide_fields;
  std::string_view* fields = inline_fields;
  if (expected >= kInlineVartextFields) {
    wide_fields.resize(expected + 1);
    fields = wide_fields.data();
  }
  const char delimiter = legacy_delimiter_;
  const CompiledQuality* cq = quality_;
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);
  Status status;
  while (!reader.AtEnd()) {
    auto line = reader.ReadLengthPrefixed16();
    if (!line.ok()) {
      // A framing error poisons the rest of the chunk (reference semantics).
      status = line.status().WithContext("chunk " + std::to_string(input.chunk.chunk_seq));
      break;
    }
    const char* text = reinterpret_cast<const char*>(line->data());
    const size_t size = line->size();
    // Split with memchr: a byte-at-a-time delimiter loop measured ~20%
    // slower on the 32-column bench layout.
    size_t nfields = 0;
    const char* start = text;
    const char* const end = text + size;
    for (;;) {
      const auto* stop =
          static_cast<const char*>(std::memchr(start, delimiter, static_cast<size_t>(end - start)));
      const char* field_end = stop != nullptr ? stop : end;
      if (nfields < expected) {
        fields[nfields] = std::string_view(start, static_cast<size_t>(field_end - start));
      }
      ++nfields;
      if (stop == nullptr) break;
      start = stop + 1;
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
      // Checks run over the SOURCE fields before anything is staged, so a
      // violating row is rendered straight into the quarantine stream.
      qs.BeginRow();
      for (size_t i = 0; i < expected; ++i) {
        const QualityFieldChecks* checks = fields_[i].checks;
        if (checks != nullptr) {
          QcString(*checks, fields[i].empty(), fields[i].data(), fields[i].size(), &qs);
        }
      }
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        VartextRecordToCsv(fields, row_number, &out->qrtn);
        SealQuarantineRow(*cq, &qs, &out->qrtn);
        ++row_number;
        continue;
      }
    }
    sink->StageVartext(fields, row_number);
    sink->Commit(row_number);
    ++out->rows_out;
    ++row_number;
    CountRealloc(out, &capacity);
  }
  sink->Finish(out);
  CountRealloc(out, &capacity);
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out->quality);
  return status;
}

// Every loop x sink pair is instantiated out of line: these are the roots
// of the hotpath driver proof (hqcheck.hotpath_drivers).
template Status ConversionPlan::ConvertBinaryChunk(const ConversionInput&, ConvertedChunk*,
                                                   CsvSink*) const;
template Status ConversionPlan::ConvertBinaryChunk(const ConversionInput&, ConvertedChunk*,
                                                   Hqb1Sink*) const;
template Status ConversionPlan::ConvertVartextChunk(const ConversionInput&, ConvertedChunk*,
                                                    CsvSink*) const;
template Status ConversionPlan::ConvertVartextChunk(const ConversionInput&, ConvertedChunk*,
                                                    Hqb1Sink*) const;

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
  const bool vartext = format_ == legacy::DataFormat::kVartext;
  if (staging_format_ == cdw::StagingFormat::kBinary) {
    Hqb1Sink sink(*this, input);
    return vartext ? ConvertVartextChunk(input, out, &sink) : ConvertBinaryChunk(input, out, &sink);
  }
  CsvSink sink(*this, out);
  return vartext ? ConvertVartextChunk(input, out, &sink) : ConvertBinaryChunk(input, out, &sink);
}

}  // namespace hyperq::core
