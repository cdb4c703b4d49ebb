#include "legacy/row_format.h"

#include "common/string_util.h"
#include "types/date.h"

namespace hyperq::legacy {

using common::ByteBuffer;
using common::ByteReader;
using common::Result;
using common::Slice;
using common::Status;
using types::Row;
using types::Schema;
using types::TypeDesc;
using types::TypeId;
using types::Value;

int32_t LegacyDateEncode(types::DateDays days) {
  types::YearMonthDay ymd = types::YmdFromDays(days);
  return (ymd.year - 1900) * 10000 + ymd.month * 100 + ymd.day;
}

Result<types::DateDays> LegacyDateDecode(int32_t encoded) {
  int32_t y = encoded / 10000 + 1900;
  int32_t m = (encoded / 100) % 100;
  int32_t d = encoded % 100;
  if (m < 0 || d < 0) {
    return Status::ConversionError("invalid legacy DATE encoding: " + std::to_string(encoded));
  }
  return types::DaysFromYmd(y, m, d);
}

BinaryRowCodec::BinaryRowCodec(Schema schema)
    : schema_(std::move(schema)), indicator_bytes_((schema_.num_fields() + 7) / 8) {}

Status BinaryRowCodec::EncodeRow(const Row& row, ByteBuffer* out) const {
  if (row.size() != schema_.num_fields()) {
    return Status::Invalid("row arity " + std::to_string(row.size()) + " != schema arity " +
                           std::to_string(schema_.num_fields()));
  }
  ByteBuffer body;
  // Null indicator bitmap, MSB-first.
  std::vector<uint8_t> indicators(indicator_bytes_, 0);
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) indicators[i / 8] |= static_cast<uint8_t>(0x80u >> (i % 8));
  }
  body.AppendBytes(indicators.data(), indicators.size());

  for (size_t i = 0; i < row.size(); ++i) {
    const TypeDesc& type = schema_.field(i).type;
    const Value& v = row[i];
    const bool null = v.is_null();
    switch (type.id) {
      case TypeId::kBoolean:
        body.AppendByte(null ? 0 : (v.boolean() ? 1 : 0));
        break;
      case TypeId::kInt8:
        if (!null && !v.is_int()) return Status::TypeError("expected int for BYTEINT");
        body.AppendI8(null ? 0 : static_cast<int8_t>(v.int_value()));
        break;
      case TypeId::kInt16:
        if (!null && !v.is_int()) return Status::TypeError("expected int for SMALLINT");
        body.AppendI16(null ? 0 : static_cast<int16_t>(v.int_value()));
        break;
      case TypeId::kInt32:
        if (!null && !v.is_int()) return Status::TypeError("expected int for INTEGER");
        body.AppendI32(null ? 0 : static_cast<int32_t>(v.int_value()));
        break;
      case TypeId::kInt64:
        if (!null && !v.is_int()) return Status::TypeError("expected int for BIGINT");
        body.AppendI64(null ? 0 : v.int_value());
        break;
      case TypeId::kFloat64:
        if (!null && !v.is_float()) return Status::TypeError("expected float for FLOAT");
        body.AppendF64(null ? 0.0 : v.float_value());
        break;
      case TypeId::kDecimal: {
        if (!null && !v.is_decimal()) return Status::TypeError("expected decimal for DECIMAL");
        int64_t unscaled = 0;
        if (!null) {
          HQ_ASSIGN_OR_RETURN(types::Decimal d, v.decimal_value().Rescale(type.scale));
          unscaled = d.unscaled();
        }
        body.AppendI64(unscaled);
        break;
      }
      case TypeId::kDate:
        if (!null && !v.is_date()) return Status::TypeError("expected date for DATE");
        body.AppendI32(null ? 0 : LegacyDateEncode(v.date_days()));
        break;
      case TypeId::kTimestamp: {
        if (!null && !v.is_timestamp()) {
          return Status::TypeError("expected timestamp for TIMESTAMP");
        }
        std::string text =
            null ? std::string(kLegacyTimestampWidth, ' ')
                 : types::FormatTimestampIso(v.timestamp_micros());
        text.resize(kLegacyTimestampWidth, ' ');
        body.AppendString(text);
        break;
      }
      case TypeId::kChar: {
        if (!null && !v.is_string()) return Status::TypeError("expected string for CHAR");
        std::string text = null ? std::string() : v.string_value();
        if (static_cast<int32_t>(text.size()) > type.length) {
          return Status::ConversionError("CHAR value too long for " + type.ToString());
        }
        text.resize(static_cast<size_t>(type.length), ' ');
        body.AppendString(text);
        break;
      }
      case TypeId::kVarchar: {
        if (!null && !v.is_string()) return Status::TypeError("expected string for VARCHAR");
        const std::string& text = null ? std::string() : v.string_value();
        if (text.size() > 0xFFFF) return Status::ConversionError("VARCHAR value exceeds 64KiB");
        body.AppendLengthPrefixed16(text);
        break;
      }
    }
  }

  if (body.size() > 0xFFFF) {
    return Status::ConversionError("record exceeds legacy 64KiB record limit");
  }
  out->AppendU16(static_cast<uint16_t>(body.size()));
  out->AppendSlice(body.AsSlice());
  return Status::OK();
}

Result<Row> BinaryRowCodec::DecodeRow(ByteReader* reader) const {
  HQ_ASSIGN_OR_RETURN(Slice record, reader->ReadLengthPrefixed16());
  ByteReader body(record);
  HQ_ASSIGN_OR_RETURN(Slice indicators, body.ReadSlice(indicator_bytes_));

  Row row;
  row.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    const TypeDesc& type = schema_.field(i).type;
    const bool null = (indicators[i / 8] & (0x80u >> (i % 8))) != 0;
    switch (type.id) {
      case TypeId::kBoolean: {
        HQ_ASSIGN_OR_RETURN(uint8_t b, body.ReadByte());
        row.push_back(null ? Value::Null() : Value::Boolean(b != 0));
        break;
      }
      case TypeId::kInt8: {
        HQ_ASSIGN_OR_RETURN(int8_t v, body.ReadI8());
        row.push_back(null ? Value::Null() : Value::Int(v));
        break;
      }
      case TypeId::kInt16: {
        HQ_ASSIGN_OR_RETURN(int16_t v, body.ReadI16());
        row.push_back(null ? Value::Null() : Value::Int(v));
        break;
      }
      case TypeId::kInt32: {
        HQ_ASSIGN_OR_RETURN(int32_t v, body.ReadI32());
        row.push_back(null ? Value::Null() : Value::Int(v));
        break;
      }
      case TypeId::kInt64: {
        HQ_ASSIGN_OR_RETURN(int64_t v, body.ReadI64());
        row.push_back(null ? Value::Null() : Value::Int(v));
        break;
      }
      case TypeId::kFloat64: {
        HQ_ASSIGN_OR_RETURN(double v, body.ReadF64());
        row.push_back(null ? Value::Null() : Value::Float(v));
        break;
      }
      case TypeId::kDecimal: {
        HQ_ASSIGN_OR_RETURN(int64_t unscaled, body.ReadI64());
        row.push_back(null ? Value::Null()
                           : Value::Dec(types::Decimal(unscaled, type.scale)));
        break;
      }
      case TypeId::kDate: {
        HQ_ASSIGN_OR_RETURN(int32_t enc, body.ReadI32());
        if (null) {
          row.push_back(Value::Null());
        } else {
          HQ_ASSIGN_OR_RETURN(types::DateDays days, LegacyDateDecode(enc));
          row.push_back(Value::Date(days));
        }
        break;
      }
      case TypeId::kTimestamp: {
        HQ_ASSIGN_OR_RETURN(Slice text, body.ReadSlice(kLegacyTimestampWidth));
        if (null) {
          row.push_back(Value::Null());
        } else {
          HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts,
                              types::ParseTimestampIso(text.ToStringView()));
          row.push_back(Value::Timestamp(ts));
        }
        break;
      }
      case TypeId::kChar: {
        HQ_ASSIGN_OR_RETURN(Slice text, body.ReadSlice(static_cast<size_t>(type.length)));
        row.push_back(null ? Value::Null() : Value::String(text.ToString()));
        break;
      }
      case TypeId::kVarchar: {
        HQ_ASSIGN_OR_RETURN(Slice text, body.ReadLengthPrefixed16());
        row.push_back(null ? Value::Null() : Value::String(text.ToString()));
        break;
      }
    }
  }
  if (!body.AtEnd()) {
    return Status::ProtocolError("trailing bytes in legacy binary record");
  }
  return row;
}

Result<std::vector<Row>> BinaryRowCodec::DecodeAll(Slice payload) const {
  ByteReader reader(payload);
  std::vector<Row> rows;
  while (!reader.AtEnd()) {
    HQ_ASSIGN_OR_RETURN(Row row, DecodeRow(&reader));
    rows.push_back(std::move(row));
  }
  return rows;
}

Status EncodeVartextRecord(const VartextRecord& fields, char delimiter, ByteBuffer* out) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line += delimiter;
    if (!fields[i].null) {
      if (fields[i].text.find(delimiter) != std::string::npos) {
        return Status::ConversionError(
            "vartext field contains the delimiter (unsupported by the legacy format)");
      }
      line += fields[i].text;
    }
  }
  if (line.size() > 0xFFFF) {
    return Status::ConversionError("vartext record exceeds legacy 64KiB record limit");
  }
  out->AppendLengthPrefixed16(line);
  return Status::OK();
}

Result<VartextRecord> DecodeVartextRecord(ByteReader* reader, char delimiter,
                                          size_t expected_fields) {
  HQ_ASSIGN_OR_RETURN(Slice line, reader->ReadLengthPrefixed16());
  VartextRecord record;
  std::string_view text = line.ToStringView();
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      VartextField field;
      field.text = std::string(text.substr(start, i - start));
      field.null = field.text.empty();
      record.push_back(std::move(field));
      start = i + 1;
    }
  }
  if (expected_fields != 0 && record.size() != expected_fields) {
    return Status::ConversionError("vartext record has " + std::to_string(record.size()) +
                                   " fields, layout expects " + std::to_string(expected_fields));
  }
  return record;
}

Result<std::vector<VartextRecord>> DecodeAllVartext(Slice payload, char delimiter,
                                                    size_t expected_fields) {
  ByteReader reader(payload);
  std::vector<VartextRecord> records;
  while (!reader.AtEnd()) {
    HQ_ASSIGN_OR_RETURN(VartextRecord rec, DecodeVartextRecord(&reader, delimiter, expected_fields));
    records.push_back(std::move(rec));
  }
  return records;
}

VartextRecord RowToVartext(const types::Row& row) {
  VartextRecord record;
  record.reserve(row.size());
  for (const Value& v : row) {
    VartextField field;
    if (v.is_null()) {
      field.null = true;
    } else if (v.is_string()) {
      field.text = v.string_value();
    } else if (v.is_date()) {
      field.text = types::FormatDateLegacyDefault(v.date_days());
    } else if (v.is_timestamp()) {
      field.text = types::FormatTimestampIso(v.timestamp_micros());
    } else if (v.is_boolean()) {
      field.text.assign(1, v.boolean() ? 'T' : 'F');  // not `= "T"`: GCC 12 -Wrestrict
    } else if (v.is_int()) {
      field.text = std::to_string(v.int_value());
    } else if (v.is_float()) {
      field.text = common::Sprintf("%.17g", v.float_value());
    } else {
      field.text = v.decimal_value().ToString();
    }
    record.push_back(std::move(field));
  }
  return record;
}

}  // namespace hyperq::legacy
