#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
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

/// Every TypeId plus CHAR past the CDW's 255-byte CHAR limit, which stages
/// as a varlen cell under HQB1.
TypeDesc GoldenTypeDesc(common::Random* rng) {
  if (rng->NextBool(1.0 / 12)) {
    return TypeDesc::Char(256 + static_cast<int32_t>(rng->NextBounded(40)));
  }
  return RandomTypeDesc(rng);
}

/// A quarter of the layouts hold every TypeId and an oversize CHAR in
/// shuffled order; the rest are random mixes of up to ten fields.
Schema GoldenLayout(uint64_t seed, common::Random* rng) {
  std::vector<TypeDesc> types;
  if (seed % 4 == 0) {
    types = {TypeDesc::Boolean(),     TypeDesc::Int8(),    TypeDesc::Int16(),
             TypeDesc::Int32(),       TypeDesc::Int64(),   TypeDesc::Float64(),
             TypeDesc::Decimal(18, 3), TypeDesc::Date(),   TypeDesc::Timestamp(),
             TypeDesc::Char(7),       TypeDesc::Varchar(20), TypeDesc::Char(300)};
    for (size_t i = types.size(); i > 1; --i) std::swap(types[i - 1], types[rng->NextBounded(i)]);
  } else {
    const size_t nfields = 1 + rng->NextBounded(10);
    for (size_t i = 0; i < nfields; ++i) types.push_back(GoldenTypeDesc(rng));
  }
  Schema layout;
  for (size_t i = 0; i < types.size(); ++i) {
    std::string name = "F";
    name += std::to_string(i);
    layout.AddField(Field(name, types[i]));
  }
  return layout;
}

/// Type-stable drift of `target`: a random subset of its fields in shuffled
/// order plus unknown fields.
Schema GoldenDrift(const Schema& target, common::Random* rng) {
  std::vector<Field> kept;
  for (const Field& f : target.fields()) {
    if (rng->NextBool(0.75)) kept.push_back(f);
  }
  for (size_t i = kept.size(); i > 1; --i) std::swap(kept[i - 1], kept[rng->NextBounded(i)]);
  const size_t nextra = rng->NextBounded(3) + (kept.empty() ? 1 : 0);
  for (size_t i = 0; i < nextra; ++i) {
    std::string name = "X";
    name += std::to_string(i);
    kept.insert(kept.begin() + static_cast<std::ptrdiff_t>(rng->NextBounded(kept.size() + 1)),
                Field(name, GoldenTypeDesc(rng)));
  }
  Schema drifted;
  for (const Field& f : kept) drifted.AddField(f);
  return drifted;
}

/// Replaces every occurrence of `from` in `bytes` with `to` (same length).
void PatchAll(std::vector<uint8_t>* bytes, const std::string& from, const std::string& to) {
  if (bytes->size() < from.size()) return;
  for (size_t i = 0; i + from.size() <= bytes->size(); ++i) {
    if (std::memcmp(bytes->data() + i, from.data(), from.size()) == 0) {
      std::memcpy(bytes->data() + i, to.data(), to.size());
      i += from.size() - 1;
    }
  }
}

std::string Int32Bytes(int32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[static_cast<size_t>(i)] = static_cast<char>(v >> (8 * i));
  return out;
}

/// One binary-wire chunk over `layout`: clean, truncated, byte-flipped, or
/// with marker DATE/TIMESTAMP values rewritten to invalid legacy encodings.
ConversionInput GoldenChunk(uint64_t seed, const Schema& layout, common::Random* rng) {
  const uint64_t mode = seed % 5;  // 0,1 clean; 2 truncate; 3 flip; 4 invalid dates
  const types::DateDays marker_day = types::DaysFromYmd(1901, 1, 1).ValueOrDie();
  const types::TimestampMicros marker_ts = static_cast<int64_t>(marker_day) * 86400000000LL;
  legacy::BinaryRowCodec codec(layout);
  common::ByteBuffer payload;
  const uint32_t nrows = static_cast<uint32_t>(rng->NextBounded(20));
  for (uint32_t i = 0; i < nrows; ++i) {
    types::Row row;
    for (size_t f = 0; f < layout.num_fields(); ++f) {
      const TypeDesc& type = layout.field(f).type;
      if (mode == 4 && type.id == types::TypeId::kDate && rng->NextBool(0.3)) {
        row.push_back(Value::Date(marker_day));
      } else if (mode == 4 && type.id == types::TypeId::kTimestamp && rng->NextBool(0.3)) {
        row.push_back(Value::Timestamp(marker_ts));
      } else {
        row.push_back(RandomValue(type, rng));
      }
    }
    EXPECT_TRUE(codec.EncodeRow(row, &payload).ok()) << "seed " << seed;
  }
  std::vector<uint8_t> bytes = payload.vector();
  if (mode == 2) {
    bytes.resize(rng->NextBounded(bytes.size() + 1));
  } else if (mode == 3) {
    for (int flips = 0; flips < 3 && !bytes.empty(); ++flips) {
      bytes[rng->NextBounded(bytes.size())] = static_cast<uint8_t>(rng->NextU64());
    }
  } else if (mode == 4) {
    PatchAll(&bytes, Int32Bytes(legacy::LegacyDateEncode(marker_day)),
             Int32Bytes((2020 - 1900) * 10000 + 13 * 100 + 45));
    PatchAll(&bytes, types::FormatTimestampIso(marker_ts), "9999-99-99 99:99:99.99999X");
  }
  ConversionInput input;
  input.order_index = seed;
  input.first_row_number = 1 + rng->NextBounded(1000);
  input.chunk.chunk_seq = seed;
  input.chunk.row_count = nrows;
  input.chunk.payload = std::move(bytes);
  return input;
}

uint64_t Fnv1a(const common::ByteBuffer& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes.vector()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One golden line: a chunk's complete observable outcome under one staging
/// format.
std::string StagingGoldenLine(uint64_t seed, cdw::StagingFormat staging,
                              const common::Result<ConvertedChunk>& converted) {
  std::ostringstream line;
  line << "seed=" << seed << (staging == cdw::StagingFormat::kBinary ? " HQB1" : " CSV");
  if (!converted.ok()) {
    line << " status=" << converted.status().ToString();
    return line.str();
  }
  const ConvertedChunk& c = *converted;
  line << " rows_out=" << c.rows_out << " reallocs=" << c.csv_reallocs << std::hex
       << " staging=" << Fnv1a(c.csv) << " qrtn=" << Fnv1a(c.qrtn) << std::dec
       << " checked=" << c.quality.rows_checked << " quarantined=" << c.quality.rows_quarantined
       << " kinds=";
  for (int k = 0; k < kNumQualityKinds; ++k) {
    line << (k != 0 ? "," : "") << c.quality.violations_by_kind[k];
  }
  line << " ids=";
  for (size_t i = 0; i < c.quality.violations_by_id.size(); ++i) {
    line << (i != 0 ? "," : "") << c.quality.violations_by_id[i];
  }
  line << " nulls=";
  for (size_t i = 0; i < c.quality.field_nulls.size(); ++i) {
    line << (i != 0 ? "," : "") << c.quality.field_nulls[i];
  }
  line << " errors=" << c.errors.size();
  for (const RecordError& e : c.errors) {
    line << " [" << e.row_number << ":" << e.code << ":" << e.field << ":" << e.message << "]";
  }
  return line.str();
}

/// Both staging formats' bytes, frozen in testdata/conversion_golden.txt:
/// the differentials above compare CSV against ConvertReference, but HQB1
/// block bytes are otherwise seen only through the tables COPY builds. Per
/// chunk and format the line holds FNV-1a digests of the staging and
/// quarantine bytes, the error list, rows_out, csv_reallocs and the quality
/// counters. HQ_UPDATE_GOLDEN=1 rewrites the file instead of comparing.
TEST(ConversionDiffTest, MatchesFrozenStagingBytes) {
  const std::string path = std::string(HQ_HYPERQ_TESTDATA_DIR) + "/conversion_golden.txt";
  constexpr uint64_t kSeeds = 240;
  std::vector<std::string> lines;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    common::Random rng(5000 + seed);
    const Schema target = GoldenLayout(seed, &rng);
    const bool drift = seed % 3 == 1;
    const Schema source = drift ? GoldenDrift(target, &rng) : target;
    const TableQualitySpec spec = testing_quality::RandomQualitySpec(source, &rng, RandomValue);
    const TableQualitySpec* quality = rng.NextBool() ? &spec : nullptr;
    const ConversionInput input = GoldenChunk(seed, source, &rng);
    for (cdw::StagingFormat staging : {cdw::StagingFormat::kCsv, cdw::StagingFormat::kBinary}) {
      auto converter =
          drift ? DataConverter::CreateRemapped(source, target, DataFormat::kBinary,
                                                kLegacyDelimiter, {}, staging, quality)
                : DataConverter::Create(source, DataFormat::kBinary, kLegacyDelimiter, {},
                                        staging, quality);
      ASSERT_TRUE(converter.ok()) << "seed " << seed << ": " << converter.status().ToString();
      lines.push_back(StagingGoldenLine(seed, staging, converter->Convert(input)));
    }
  }
  ASSERT_EQ(lines.size(), 2 * kSeeds);
  if (std::getenv("HQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << "\n";
    ASSERT_TRUE(out.good()) << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], golden[i]);
}

}  // namespace
}  // namespace hyperq::core
