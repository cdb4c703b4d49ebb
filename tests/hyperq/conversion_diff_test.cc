#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hyperq/data_converter.h"
#include "legacy/row_format.h"
#include "random_quality_spec.h"
#include "types/date.h"

/// Differential test for the compiled conversion plan: Convert (fused
/// kernels, conversion_plan.cc) must be byte-identical to ConvertReference
/// (Value materialization + CsvRecord) on every input — same CSV bytes, same
/// RecordError list, same row accounting. Layouts and chunks are generated
/// from a seeded PRNG so failures reproduce; the generators deliberately
/// cover NULLs, empty strings, CSV specials embedded in text, malformed
/// binary records, and vartext arity mismatches. The quality-gate cases arm
/// a random constraint spec and diff the fused check ops (under both staging
/// formats) against ConvertReference's interpretive validator.

namespace hyperq::core {
namespace {

using legacy::DataFormat;
using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr char kLegacyDelimiter = '|';

TypeDesc RandomTypeDesc(common::Random* rng) {
  switch (rng->NextBounded(11)) {
    case 0: return TypeDesc::Boolean();
    case 1: return TypeDesc::Int8();
    case 2: return TypeDesc::Int16();
    case 3: return TypeDesc::Int32();
    case 4: return TypeDesc::Int64();
    case 5: return TypeDesc::Float64();
    case 6: return TypeDesc::Date();
    case 7: return TypeDesc::Timestamp();
    case 8: {
      int32_t scale = static_cast<int32_t>(rng->NextBounded(6));
      return TypeDesc::Decimal(18, scale);
    }
    case 9: return TypeDesc::Char(1 + static_cast<int32_t>(rng->NextBounded(12)));
    default: return TypeDesc::Varchar(1 + static_cast<int32_t>(rng->NextBounded(40)));
  }
}

Schema RandomBinaryLayout(common::Random* rng) {
  Schema layout;
  size_t nfields = 1 + rng->NextBounded(8);
  for (size_t i = 0; i < nfields; ++i) {
    // Appends, not `"F" + std::to_string(i)`: GCC 12 -Wrestrict at -O3.
    std::string name = "F";
    name += std::to_string(i);
    layout.AddField(Field(name, RandomTypeDesc(rng)));
  }
  return layout;
}

/// Text that exercises the CSV escaper: delimiters, quotes, CR/LF, and the
/// legacy delimiter itself (legal in binary VARCHAR payloads).
std::string RandomDirtyText(common::Random* rng, size_t max_len) {
  static constexpr char kPool[] = "ab,\"\n\r|x ";
  std::string text;
  size_t len = rng->NextBounded(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    text.push_back(kPool[rng->NextBounded(sizeof(kPool) - 1)]);
  }
  return text;
}

Value RandomValue(const TypeDesc& type, common::Random* rng) {
  if (rng->NextBool(0.2)) return Value::Null();
  switch (type.id) {
    case types::TypeId::kBoolean: return Value::Boolean(rng->NextBool());
    case types::TypeId::kInt8: return Value::Int(rng->NextInRange(-128, 127));
    case types::TypeId::kInt16: return Value::Int(rng->NextInRange(-32768, 32767));
    case types::TypeId::kInt32: return Value::Int(rng->NextInRange(INT32_MIN, INT32_MAX));
    case types::TypeId::kInt64: return Value::Int(static_cast<int64_t>(rng->NextU64()));
    case types::TypeId::kFloat64:
      return Value::Float((rng->NextDouble() - 0.5) * 1e12);
    case types::TypeId::kDate: {
      auto days = types::DaysFromYmd(static_cast<int32_t>(rng->NextInRange(1900, 2100)),
                                     static_cast<int32_t>(rng->NextInRange(1, 12)),
                                     static_cast<int32_t>(rng->NextInRange(1, 28)));
      return Value::Date(days.ValueOrDie());
    }
    case types::TypeId::kTimestamp: {
      auto days = types::DaysFromYmd(static_cast<int32_t>(rng->NextInRange(1970, 2100)),
                                     static_cast<int32_t>(rng->NextInRange(1, 12)),
                                     static_cast<int32_t>(rng->NextInRange(1, 28)));
      int64_t micros = static_cast<int64_t>(days.ValueOrDie()) * 86400000000LL +
                       rng->NextInRange(0, 86399999999LL);
      return Value::Timestamp(micros);
    }
    case types::TypeId::kDecimal:
      return Value::Dec(types::Decimal(rng->NextInRange(-1000000000000LL, 1000000000000LL),
                                       type.scale));
    case types::TypeId::kChar:
      return Value::String(rng->NextAlnum(rng->NextBounded(type.length + 1)));
    case types::TypeId::kVarchar:
      // Empty string (distinct from NULL) and CSV specials both land here.
      return Value::String(RandomDirtyText(rng, type.length));
  }
  return Value::Null();
}

void ExpectIdenticalOutput(const DataConverter& converter, const ConversionInput& input) {
  auto compiled = converter.Convert(input);
  auto reference = converter.ConvertReference(input);
  ASSERT_EQ(compiled.ok(), reference.ok())
      << "compiled: " << compiled.status().ToString()
      << " reference: " << reference.status().ToString();
  if (!compiled.ok()) {
    EXPECT_EQ(compiled.status().ToString(), reference.status().ToString());
    return;
  }
  const ConvertedChunk& c = *compiled;
  const ConvertedChunk& r = *reference;
  EXPECT_EQ(c.order_index, r.order_index);
  EXPECT_EQ(c.first_row_number, r.first_row_number);
  EXPECT_EQ(c.rows_in, r.rows_in);
  EXPECT_EQ(c.rows_out, r.rows_out);
  EXPECT_EQ(std::string(c.csv.AsSlice().ToStringView()),
            std::string(r.csv.AsSlice().ToStringView()));
  ASSERT_EQ(c.errors.size(), r.errors.size());
  for (size_t i = 0; i < c.errors.size(); ++i) {
    EXPECT_EQ(c.errors[i].row_number, r.errors[i].row_number) << "error " << i;
    EXPECT_EQ(c.errors[i].code, r.errors[i].code) << "error " << i;
    EXPECT_EQ(c.errors[i].field, r.errors[i].field) << "error " << i;
    EXPECT_EQ(c.errors[i].message, r.errors[i].message) << "error " << i;
  }
}

TEST(ConversionDiffTest, RandomBinaryChunksMatchReference) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    common::Random rng(seed);
    Schema layout = RandomBinaryLayout(&rng);
    legacy::BinaryRowCodec codec(layout);
    common::ByteBuffer payload;
    uint32_t nrows = static_cast<uint32_t>(rng.NextBounded(24));
    for (uint32_t i = 0; i < nrows; ++i) {
      types::Row row;
      for (size_t f = 0; f < layout.num_fields(); ++f) {
        row.push_back(RandomValue(layout.field(f).type, &rng));
      }
      ASSERT_TRUE(codec.EncodeRow(row, &payload).ok()) << "seed " << seed;
    }
    auto converter =
        DataConverter::Create(layout, DataFormat::kBinary, kLegacyDelimiter).ValueOrDie();
    ConversionInput input;
    input.order_index = seed;
    input.first_row_number = 1 + rng.NextBounded(1000);
    input.chunk.chunk_seq = seed;
    input.chunk.row_count = nrows;
    input.chunk.payload = payload.vector();
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectIdenticalOutput(converter, input);
  }
}

TEST(ConversionDiffTest, CorruptedBinaryChunksMatchReference) {
  // Truncations and random byte flips must produce the same RecordError
  // rollback in both paths (error row number, code, message, and the CSV
  // holding exactly the records converted before the failure).
  for (uint64_t seed = 100; seed < 160; ++seed) {
    common::Random rng(seed);
    Schema layout = RandomBinaryLayout(&rng);
    legacy::BinaryRowCodec codec(layout);
    common::ByteBuffer payload;
    uint32_t nrows = 1 + static_cast<uint32_t>(rng.NextBounded(12));
    for (uint32_t i = 0; i < nrows; ++i) {
      types::Row row;
      for (size_t f = 0; f < layout.num_fields(); ++f) {
        row.push_back(RandomValue(layout.field(f).type, &rng));
      }
      ASSERT_TRUE(codec.EncodeRow(row, &payload).ok()) << "seed " << seed;
    }
    std::vector<uint8_t> bytes = payload.vector();
    if (rng.NextBool()) {
      bytes.resize(rng.NextBounded(bytes.size() + 1));  // truncate
    } else {
      for (int flips = 0; flips < 4 && !bytes.empty(); ++flips) {
        bytes[rng.NextBounded(bytes.size())] = static_cast<uint8_t>(rng.NextU64());
      }
    }
    auto converter =
        DataConverter::Create(layout, DataFormat::kBinary, kLegacyDelimiter).ValueOrDie();
    ConversionInput input;
    input.first_row_number = 1;
    input.chunk.row_count = nrows;
    input.chunk.payload = std::move(bytes);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectIdenticalOutput(converter, input);
  }
}

TEST(ConversionDiffTest, InvalidDateAndTimestampEncodingsMatchReference) {
  Schema layout;
  layout.AddField(Field("D", TypeDesc::Date()));
  legacy::BinaryRowCodec codec(layout);
  common::ByteBuffer payload;
  ASSERT_TRUE(
      codec.EncodeRow({Value::Date(types::DaysFromYmd(2020, 2, 29).ValueOrDie())}, &payload)
          .ok());
  // Patch the int32 date slot (offset 2 length + 1 indicator byte) to the
  // calendar-invalid encoding 2020-13-45.
  std::vector<uint8_t> bytes = payload.vector();
  int32_t bad = (2020 - 1900) * 10000 + 13 * 100 + 45;
  for (int i = 0; i < 4; ++i) bytes[3 + i] = static_cast<uint8_t>(bad >> (8 * i));
  auto converter =
      DataConverter::Create(layout, DataFormat::kBinary, kLegacyDelimiter).ValueOrDie();
  ConversionInput input;
  input.first_row_number = 7;
  input.chunk.row_count = 1;
  input.chunk.payload = std::move(bytes);
  ExpectIdenticalOutput(converter, input);

  Schema ts_layout;
  ts_layout.AddField(Field("T", TypeDesc::Timestamp()));
  legacy::BinaryRowCodec ts_codec(ts_layout);
  common::ByteBuffer ts_payload;
  ASSERT_TRUE(ts_codec.EncodeRow({Value::Timestamp(0)}, &ts_payload).ok());
  std::vector<uint8_t> ts_bytes = ts_payload.vector();
  // Clobber the 26-char ASCII timestamp with text ParseTimestampIso rejects.
  const char kBad[] = "9999-99-99 99:99:99.99999X";
  for (size_t i = 0; i < legacy::kLegacyTimestampWidth; ++i) {
    ts_bytes[3 + i] = static_cast<uint8_t>(kBad[i]);
  }
  auto ts_converter =
      DataConverter::Create(ts_layout, DataFormat::kBinary, kLegacyDelimiter).ValueOrDie();
  ConversionInput ts_input;
  ts_input.first_row_number = 9;
  ts_input.chunk.row_count = 1;
  ts_input.chunk.payload = std::move(ts_bytes);
  ExpectIdenticalOutput(ts_converter, ts_input);
}

TEST(ConversionDiffTest, RandomVartextChunksMatchReference) {
  // Vartext: NULL vs empty-string fields, CSV specials (everything but the
  // legacy delimiter), and deliberate arity mismatches in ~1 of 5 records.
  for (uint64_t seed = 200; seed < 260; ++seed) {
    common::Random rng(seed);
    size_t nfields = 1 + rng.NextBounded(6);
    Schema layout;
    for (size_t i = 0; i < nfields; ++i) {
      std::string name = "V";
      name += std::to_string(i);
      layout.AddField(Field(name, TypeDesc::Varchar(30)));
    }
    common::ByteBuffer payload;
    uint32_t nrows = static_cast<uint32_t>(rng.NextBounded(20));
    for (uint32_t i = 0; i < nrows; ++i) {
      size_t arity = nfields;
      if (rng.NextBool(0.2)) arity = 1 + rng.NextBounded(nfields + 2);
      legacy::VartextRecord record;
      for (size_t f = 0; f < arity; ++f) {
        legacy::VartextField field;
        field.null = rng.NextBool(0.25);
        if (!field.null) {
          std::string text;
          size_t len = rng.NextBounded(12);
          static constexpr char kPool[] = "xy,\"\n\r 0";
          for (size_t c = 0; c < len; ++c) {
            text.push_back(kPool[rng.NextBounded(sizeof(kPool) - 1)]);
          }
          field.text = std::move(text);
        }
        record.push_back(std::move(field));
      }
      ASSERT_TRUE(legacy::EncodeVartextRecord(record, kLegacyDelimiter, &payload).ok())
          << "seed " << seed;
    }
    auto converter =
        DataConverter::Create(layout, DataFormat::kVartext, kLegacyDelimiter).ValueOrDie();
    ConversionInput input;
    input.first_row_number = 1 + rng.NextBounded(500);
    input.chunk.chunk_seq = seed;
    input.chunk.row_count = nrows;
    input.chunk.payload = payload.vector();
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectIdenticalOutput(converter, input);
  }
}

TEST(ConversionDiffTest, TruncatedVartextFramingFailsIdentically) {
  Schema layout;
  layout.AddField(Field("V0", TypeDesc::Varchar(10)));
  common::ByteBuffer payload;
  ASSERT_TRUE(legacy::EncodeVartextRecord({{false, "hello"}}, kLegacyDelimiter, &payload).ok());
  std::vector<uint8_t> bytes = payload.vector();
  bytes.resize(bytes.size() - 2);  // length prefix promises more than exists
  auto converter =
      DataConverter::Create(layout, DataFormat::kVartext, kLegacyDelimiter).ValueOrDie();
  ConversionInput input;
  input.first_row_number = 1;
  input.chunk.chunk_seq = 42;
  input.chunk.row_count = 1;
  input.chunk.payload = std::move(bytes);
  ExpectIdenticalOutput(converter, input);
}

TEST(ConversionDiffTest, NonDefaultCsvDelimiterMatchesReference) {
  // The staging CSV delimiter is configurable; escaping must key off it.
  Schema layout;
  layout.AddField(Field("A", TypeDesc::Varchar(20)));
  layout.AddField(Field("B", TypeDesc::Varchar(20)));
  cdw::CsvOptions options;
  options.delimiter = ';';
  common::ByteBuffer payload;
  ASSERT_TRUE(legacy::EncodeVartextRecord({{false, "semi;colon"}, {false, "com,ma"}},
                                          kLegacyDelimiter, &payload)
                  .ok());
  auto converter =
      DataConverter::Create(layout, DataFormat::kVartext, kLegacyDelimiter, options).ValueOrDie();
  ConversionInput input;
  input.first_row_number = 1;
  input.chunk.row_count = 1;
  input.chunk.payload = payload.vector();
  ExpectIdenticalOutput(converter, input);
}

/// Gate-armed differential: the compiled plan's quarantine stream, row
/// accounting and quality counters must equal ConvertReference's under
/// either staging format; the staging bytes are comparable for CSV only
/// (ConvertReference always renders CSV). Returns the rows quarantined.
uint64_t ExpectQualityMatchesReference(const DataConverter& converter,
                                       const ConversionInput& input, bool compare_csv) {
  auto compiled = converter.Convert(input);
  auto reference = converter.ConvertReference(input);
  EXPECT_EQ(compiled.ok(), reference.ok())
      << "compiled: " << compiled.status().ToString()
      << " reference: " << reference.status().ToString();
  if (!compiled.ok() || !reference.ok()) return 0;
  const ConvertedChunk& c = *compiled;
  const ConvertedChunk& r = *reference;
  EXPECT_EQ(c.rows_out, r.rows_out);
  EXPECT_EQ(c.errors.size(), r.errors.size());
  if (compare_csv) {
    EXPECT_EQ(std::string(c.csv.AsSlice().ToStringView()),
              std::string(r.csv.AsSlice().ToStringView()));
  }
  testing_quality::ExpectSameQuality(c, r);
  return r.quality.rows_quarantined;
}

TEST(ConversionDiffTest, QualityGateOnBinaryChunksMatchesReference) {
  // Random layouts x random specs, with a share of truncated payloads so a
  // record that fails wire decode must contribute nothing to the counters.
  uint64_t quarantined = 0;
  for (uint64_t seed = 300; seed < 700; ++seed) {
    common::Random rng(seed);
    Schema layout = RandomBinaryLayout(&rng);
    const TableQualitySpec spec = testing_quality::RandomQualitySpec(layout, &rng, RandomValue);
    legacy::BinaryRowCodec codec(layout);
    common::ByteBuffer payload;
    uint32_t nrows = static_cast<uint32_t>(rng.NextBounded(24));
    for (uint32_t i = 0; i < nrows; ++i) {
      types::Row row;
      for (size_t f = 0; f < layout.num_fields(); ++f) {
        row.push_back(RandomValue(layout.field(f).type, &rng));
      }
      ASSERT_TRUE(codec.EncodeRow(row, &payload).ok()) << "seed " << seed;
    }
    std::vector<uint8_t> bytes = payload.vector();
    if (rng.NextBool(0.2)) bytes.resize(rng.NextBounded(bytes.size() + 1));
    ConversionInput input;
    input.first_row_number = 1 + rng.NextBounded(1000);
    input.chunk.chunk_seq = seed;
    input.chunk.row_count = nrows;
    input.chunk.payload = std::move(bytes);
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (cdw::StagingFormat staging : {cdw::StagingFormat::kCsv, cdw::StagingFormat::kBinary}) {
      auto converter =
          DataConverter::Create(layout, DataFormat::kBinary, kLegacyDelimiter, {}, staging, &spec);
      ASSERT_TRUE(converter.ok()) << converter.status().ToString();
      quarantined += ExpectQualityMatchesReference(*converter, input,
                                                   staging == cdw::StagingFormat::kCsv);
    }
  }
  EXPECT_GT(quarantined, 0u);
}

TEST(ConversionDiffTest, QualityGateOnVartextChunksMatchesReference) {
  // Vartext fields are VARCHAR, so the spec draws notnull / len / charset /
  // pattern / require; arity mismatches must not reach the counters.
  uint64_t quarantined = 0;
  for (uint64_t seed = 700; seed < 1100; ++seed) {
    common::Random rng(seed);
    size_t nfields = 1 + rng.NextBounded(6);
    Schema layout;
    for (size_t i = 0; i < nfields; ++i) {
      std::string name = "V";
      name += std::to_string(i);
      layout.AddField(Field(name, TypeDesc::Varchar(30)));
    }
    const TableQualitySpec spec = testing_quality::RandomQualitySpec(layout, &rng, RandomValue);
    common::ByteBuffer payload;
    uint32_t nrows = static_cast<uint32_t>(rng.NextBounded(20));
    for (uint32_t i = 0; i < nrows; ++i) {
      size_t arity = nfields;
      if (rng.NextBool(0.1)) arity = 1 + rng.NextBounded(nfields + 2);
      legacy::VartextRecord record;
      for (size_t f = 0; f < arity; ++f) {
        legacy::VartextField field;
        field.null = rng.NextBool(0.2);
        if (!field.null) field.text = RandomDirtyText(&rng, 10);
        // The legacy delimiter cannot appear inside a vartext field.
        for (char& ch : field.text) {
          if (ch == kLegacyDelimiter) ch = 'a';
        }
        record.push_back(std::move(field));
      }
      ASSERT_TRUE(legacy::EncodeVartextRecord(record, kLegacyDelimiter, &payload).ok())
          << "seed " << seed;
    }
    ConversionInput input;
    input.first_row_number = 1 + rng.NextBounded(500);
    input.chunk.chunk_seq = seed;
    input.chunk.row_count = nrows;
    input.chunk.payload = payload.vector();
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (cdw::StagingFormat staging : {cdw::StagingFormat::kCsv, cdw::StagingFormat::kBinary}) {
      auto converter = DataConverter::Create(layout, DataFormat::kVartext, kLegacyDelimiter, {},
                                             staging, &spec);
      ASSERT_TRUE(converter.ok()) << converter.status().ToString();
      quarantined += ExpectQualityMatchesReference(*converter, input,
                                                   staging == cdw::StagingFormat::kCsv);
    }
  }
  EXPECT_GT(quarantined, 0u);
}

}  // namespace
}  // namespace hyperq::core
