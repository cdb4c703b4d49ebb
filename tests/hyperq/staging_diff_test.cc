#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdw/copy.h"
#include "cdw/table.h"
#include "cloudstore/object_store.h"
#include "common/random.h"
#include "hyperq/data_converter.h"
#include "legacy/row_format.h"
#include "random_quality_spec.h"
#include "types/date.h"

/// Differential test for the binary direct-pipe staging path: the same
/// legacy chunks, staged once as CSV and once as HQB1 and COPY'd into two
/// tables, must land cell-identical table contents — same values, same
/// NULL-vs-empty-string distinctions, same HQ_ROWNUM accounting, same
/// per-record error capture during conversion. The CSV path is the
/// compatibility reference; the binary path may only skip the text
/// round-trip, never change what arrives.

namespace hyperq::core {
namespace {

using legacy::DataFormat;
using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr char kLegacyDelimiter = '|';

/// Stages every converted chunk of `staging` format as one object and COPYs
/// the prefix into a fresh staging table; conversion metadata is compared by
/// the caller against the other format's run.
struct StagedRun {
  cdw::Table table;
  std::vector<ConvertedChunk> chunks;
};

StagedRun RunPipe(const DataConverter& converter, const Schema& target_layout,
                  const std::vector<ConversionInput>& inputs, cdw::StagingFormat staging) {
  StagedRun run{cdw::Table("STG", MakeStagingSchema(target_layout).ValueOrDie()), {}};
  cloud::ObjectStore store;
  size_t nobjects = 0;
  for (const ConversionInput& input : inputs) {
    auto converted = converter.Convert(input);
    EXPECT_TRUE(converted.ok()) << converted.status().ToString();
    if (!converted.ok()) return run;
    if (converted->rows_out > 0) {
      const std::string key = "diff/part_" + std::to_string(nobjects++) +
                              std::string(cdw::StagingFileExtension(staging));
      EXPECT_TRUE(store.Put(key, converted->csv.AsSlice()).ok());
    }
    run.chunks.push_back(std::move(*converted));
  }
  cdw::CopyOptions options;
  options.format = staging == cdw::StagingFormat::kBinary ? cdw::CopyFormat::kBinary
                                                          : cdw::CopyFormat::kCsv;
  auto copied = cdw::CopyFromStore(&run.table, store, "diff/", options);
  EXPECT_TRUE(copied.ok()) << copied.status().ToString();
  return run;
}

/// Cell-exact comparison of the two landed tables plus conversion metadata
/// (rows in/out and the error lists must match chunk for chunk).
void ExpectRunsIdentical(const StagedRun& csv, const StagedRun& binary) {
  ASSERT_EQ(csv.chunks.size(), binary.chunks.size());
  for (size_t i = 0; i < csv.chunks.size(); ++i) {
    const ConvertedChunk& c = csv.chunks[i];
    const ConvertedChunk& b = binary.chunks[i];
    EXPECT_EQ(c.rows_in, b.rows_in) << "chunk " << i;
    EXPECT_EQ(c.rows_out, b.rows_out) << "chunk " << i;
    ASSERT_EQ(c.errors.size(), b.errors.size()) << "chunk " << i;
    for (size_t e = 0; e < c.errors.size(); ++e) {
      EXPECT_EQ(c.errors[e].row_number, b.errors[e].row_number);
      EXPECT_EQ(c.errors[e].code, b.errors[e].code);
      EXPECT_EQ(c.errors[e].field, b.errors[e].field);
      EXPECT_EQ(c.errors[e].message, b.errors[e].message);
    }
  }
  ASSERT_EQ(csv.table.num_rows(), binary.table.num_rows());
  ASSERT_EQ(csv.table.num_columns(), binary.table.num_columns());
  for (size_t r = 0; r < csv.table.num_rows(); ++r) {
    for (size_t c = 0; c < csv.table.num_columns(); ++c) {
      EXPECT_TRUE(csv.table.At(r, c) == binary.table.At(r, c))
          << "cell (" << r << "," << c << ") csv=" << csv.table.At(r, c).ToString()
          << " binary=" << binary.table.At(r, c).ToString();
    }
  }
}

void ExpectFormatsLandIdenticalTables(const Schema& layout, DataFormat format,
                                      const std::vector<ConversionInput>& inputs) {
  auto csv_conv = DataConverter::Create(layout, format, kLegacyDelimiter, {},
                                        cdw::StagingFormat::kCsv);
  auto bin_conv = DataConverter::Create(layout, format, kLegacyDelimiter, {},
                                        cdw::StagingFormat::kBinary);
  ASSERT_TRUE(csv_conv.ok()) << csv_conv.status().ToString();
  ASSERT_TRUE(bin_conv.ok()) << bin_conv.status().ToString();
  StagedRun csv = RunPipe(*csv_conv, layout, inputs, cdw::StagingFormat::kCsv);
  StagedRun binary = RunPipe(*bin_conv, layout, inputs, cdw::StagingFormat::kBinary);
  ExpectRunsIdentical(csv, binary);
}

// --- Generators (mirroring conversion_diff_test's coverage) ---------------

TypeDesc RandomTypeDesc(common::Random* rng) {
  switch (rng->NextBounded(12)) {
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
    case 10: return TypeDesc::Char(256 + static_cast<int32_t>(rng->NextBounded(64)));
    default: return TypeDesc::Varchar(1 + static_cast<int32_t>(rng->NextBounded(40)));
  }
}

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
      return Value::String(RandomDirtyText(rng, type.length));
  }
  return Value::Null();
}

std::vector<ConversionInput> RandomBinaryInputs(const Schema& layout, common::Random* rng,
                                                size_t nchunks) {
  std::vector<ConversionInput> inputs;
  uint64_t row_number = 1;
  for (size_t chunk = 0; chunk < nchunks; ++chunk) {
    legacy::BinaryRowCodec codec(layout);
    common::ByteBuffer payload;
    uint32_t nrows = static_cast<uint32_t>(rng->NextBounded(24));
    for (uint32_t i = 0; i < nrows; ++i) {
      types::Row row;
      for (size_t f = 0; f < layout.num_fields(); ++f) {
        row.push_back(RandomValue(layout.field(f).type, rng));
      }
      EXPECT_TRUE(codec.EncodeRow(row, &payload).ok());
    }
    ConversionInput input;
    input.order_index = chunk;
    input.first_row_number = row_number;
    input.chunk.chunk_seq = chunk;
    input.chunk.row_count = nrows;
    input.chunk.payload = payload.vector();
    row_number += nrows;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

// --- Tests ----------------------------------------------------------------

TEST(StagingDiffTest, FullTypeMatrixLandsIdenticalTables) {
  // One fixed layout holding every staging encoding at once: fixed widths
  // 1/2/4/8, DECIMAL unscaled, DATE/TIMESTAMP, padded CHAR, oversize CHAR
  // (mapped to VARCHAR in staging), and varlen VARCHAR.
  Schema layout;
  layout.AddField(Field("B", TypeDesc::Boolean()));
  layout.AddField(Field("I1", TypeDesc::Int8()));
  layout.AddField(Field("I2", TypeDesc::Int16()));
  layout.AddField(Field("I4", TypeDesc::Int32()));
  layout.AddField(Field("I8", TypeDesc::Int64()));
  layout.AddField(Field("F", TypeDesc::Float64()));
  layout.AddField(Field("DEC", TypeDesc::Decimal(18, 4)));
  layout.AddField(Field("D", TypeDesc::Date()));
  layout.AddField(Field("TS", TypeDesc::Timestamp()));
  layout.AddField(Field("C", TypeDesc::Char(7)));
  layout.AddField(Field("CBIG", TypeDesc::Char(300)));
  layout.AddField(Field("V", TypeDesc::Varchar(40)));
  common::Random rng(42);
  ExpectFormatsLandIdenticalTables(layout, DataFormat::kBinary,
                                   RandomBinaryInputs(layout, &rng, 6));
}

TEST(StagingDiffTest, RandomLayoutsLandIdenticalTables) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    common::Random rng(seed);
    Schema layout;
    size_t nfields = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < nfields; ++i) {
      // Appends, not `"F" + std::to_string(i)`: GCC 12 -Wrestrict at -O3.
      std::string name = "F";
      name += std::to_string(i);
      layout.AddField(Field(name, RandomTypeDesc(&rng)));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectFormatsLandIdenticalTables(layout, DataFormat::kBinary,
                                     RandomBinaryInputs(layout, &rng, 3));
  }
}

TEST(StagingDiffTest, NullEmptyAndVarlenEdgesLandIdentical) {
  // The classic staging traps, vartext wire: NULL vs empty string, fields of
  // CSV specials, a field exactly at the declared length, and a field that
  // is nothing but quotes.
  Schema layout;
  layout.AddField(Field("A", TypeDesc::Varchar(8)));
  layout.AddField(Field("B", TypeDesc::Varchar(30)));
  common::ByteBuffer payload;
  auto put = [&](legacy::VartextRecord record) {
    EXPECT_TRUE(legacy::EncodeVartextRecord(record, kLegacyDelimiter, &payload).ok());
  };
  put({{true, ""}, {false, ""}});             // NULL vs empty string
  put({{false, "exactly8"}, {true, ""}});     // at declared length; NULL
  put({{false, "\"\"\""}, {false, "a,b\r\nc"}});  // quotes only; CSV specials
  put({{false, ""}, {false, "trailing space "}});
  ConversionInput input;
  input.first_row_number = 1;
  input.chunk.row_count = 4;
  input.chunk.payload = payload.vector();
  ExpectFormatsLandIdenticalTables(layout, DataFormat::kVartext, {input});
}

TEST(StagingDiffTest, RecordErrorsCaptureIdenticallyAcrossFormats) {
  // Arity mismatches are per-record data errors: both formats must skip the
  // same records, keep the same survivors, and report identical errors.
  Schema layout;
  layout.AddField(Field("A", TypeDesc::Varchar(10)));
  layout.AddField(Field("B", TypeDesc::Varchar(10)));
  common::ByteBuffer payload;
  EXPECT_TRUE(legacy::EncodeVartextRecord({{false, "ok1"}, {false, "ok1"}},
                                          kLegacyDelimiter, &payload)
                  .ok());
  EXPECT_TRUE(
      legacy::EncodeVartextRecord({{false, "short"}}, kLegacyDelimiter, &payload).ok());
  EXPECT_TRUE(legacy::EncodeVartextRecord({{false, "ok2"}, {false, "ok2"}},
                                          kLegacyDelimiter, &payload)
                  .ok());
  ConversionInput input;
  input.first_row_number = 10;
  input.chunk.row_count = 3;
  input.chunk.payload = payload.vector();
  ExpectFormatsLandIdenticalTables(layout, DataFormat::kVartext, {input});
}

TEST(StagingDiffTest, DriftRemappedLayoutsLandIdenticalTables) {
  // Type-stable drift (the binary-compatible kind): the wire layout reorders
  // the target's columns, drops one, and adds an unknown one. Both staging
  // formats must land identical target-shaped tables.
  Schema target;
  target.AddField(Field("A", TypeDesc::Varchar(10)));
  target.AddField(Field("B", TypeDesc::Varchar(20)));
  target.AddField(Field("C", TypeDesc::Varchar(30)));
  Schema drifted;
  drifted.AddField(Field("C", TypeDesc::Varchar(30)));  // reordered
  drifted.AddField(Field("X", TypeDesc::Varchar(5)));   // unknown: dropped
  drifted.AddField(Field("A", TypeDesc::Varchar(10)));  // B missing: NULLed
  common::ByteBuffer payload;
  EXPECT_TRUE(legacy::EncodeVartextRecord({{false, "ccc"}, {false, "x"}, {false, "aaa"}},
                                          kLegacyDelimiter, &payload)
                  .ok());
  EXPECT_TRUE(legacy::EncodeVartextRecord({{true, ""}, {false, ""}, {false, ""}},
                                          kLegacyDelimiter, &payload)
                  .ok());
  ConversionInput input;
  input.first_row_number = 1;
  input.chunk.row_count = 2;
  input.chunk.payload = payload.vector();

  auto csv_conv = DataConverter::CreateRemapped(drifted, target, DataFormat::kVartext,
                                                kLegacyDelimiter, {},
                                                cdw::StagingFormat::kCsv);
  auto bin_conv = DataConverter::CreateRemapped(drifted, target, DataFormat::kVartext,
                                                kLegacyDelimiter, {},
                                                cdw::StagingFormat::kBinary);
  ASSERT_TRUE(csv_conv.ok()) << csv_conv.status().ToString();
  ASSERT_TRUE(bin_conv.ok()) << bin_conv.status().ToString();
  StagedRun csv = RunPipe(*csv_conv, target, {input}, cdw::StagingFormat::kCsv);
  StagedRun binary = RunPipe(*bin_conv, target, {input}, cdw::StagingFormat::kBinary);
  ExpectRunsIdentical(csv, binary);
  // B (missing from the wire) must have landed NULL, and the drift must not
  // have shifted columns: A carries A's data.
  ASSERT_EQ(csv.table.num_rows(), 2u);
  EXPECT_EQ(csv.table.At(0, 0).string_value(), "aaa");
  EXPECT_TRUE(csv.table.At(0, 1).is_null());
  EXPECT_EQ(csv.table.At(0, 2).string_value(), "ccc");
}

TEST(StagingDiffTest, BinaryWireDriftLandsIdenticalTablesAndQuarantine) {
  // Type-stable drift on the binary wire: the source layout keeps a random
  // subset of the target's fields in shuffled order and adds unknown ones.
  // Both staging formats must land identical target-shaped tables and, with
  // a spec armed on half the seeds, identical quarantine streams.
  uint64_t quarantined = 0;
  for (uint64_t seed = 1000; seed < 1300; ++seed) {
    common::Random rng(seed);
    Schema target;
    size_t nfields = 1 + rng.NextBounded(7);
    for (size_t i = 0; i < nfields; ++i) {
      std::string name = "F";
      name += std::to_string(i);
      target.AddField(Field(name, RandomTypeDesc(&rng)));
    }
    std::vector<Field> kept;
    std::vector<std::string> dropped;
    for (const Field& f : target.fields()) {
      if (rng.NextBool(0.75)) {
        kept.push_back(f);
      } else {
        dropped.push_back(f.name);
      }
    }
    for (size_t i = kept.size(); i > 1; --i) std::swap(kept[i - 1], kept[rng.NextBounded(i)]);
    const size_t nextra = rng.NextBounded(3) + (kept.empty() ? 1 : 0);
    for (size_t i = 0; i < nextra; ++i) {
      std::string name = "X";
      name += std::to_string(i);
      kept.insert(kept.begin() + static_cast<std::ptrdiff_t>(rng.NextBounded(kept.size() + 1)),
                  Field(name, RandomTypeDesc(&rng)));
    }
    Schema drifted;
    for (const Field& f : kept) drifted.AddField(f);

    const bool armed = rng.NextBool();
    TableQualitySpec spec = testing_quality::RandomQualitySpec(drifted, &rng, RandomValue);
    if (!dropped.empty()) {
      // A constraint on a column the drifted wire no longer carries goes
      // dormant for the window instead of failing the converter.
      QualityConstraintSpec dormant;
      dormant.kind = QualityKind::kNotNull;
      dormant.column = dropped[0];
      spec.constraints.push_back(std::move(dormant));
    }
    const TableQualitySpec* quality = armed ? &spec : nullptr;
    auto csv_conv = DataConverter::CreateRemapped(drifted, target, DataFormat::kBinary,
                                                  kLegacyDelimiter, {}, cdw::StagingFormat::kCsv,
                                                  quality);
    auto bin_conv = DataConverter::CreateRemapped(drifted, target, DataFormat::kBinary,
                                                  kLegacyDelimiter, {},
                                                  cdw::StagingFormat::kBinary, quality);
    ASSERT_TRUE(csv_conv.ok()) << csv_conv.status().ToString();
    ASSERT_TRUE(bin_conv.ok()) << bin_conv.status().ToString();
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<ConversionInput> inputs = RandomBinaryInputs(drifted, &rng, 3);
    StagedRun csv = RunPipe(*csv_conv, target, inputs, cdw::StagingFormat::kCsv);
    StagedRun binary = RunPipe(*bin_conv, target, inputs, cdw::StagingFormat::kBinary);
    ExpectRunsIdentical(csv, binary);
    ASSERT_EQ(csv.chunks.size(), binary.chunks.size());
    for (size_t i = 0; i < csv.chunks.size(); ++i) {
      testing_quality::ExpectSameQuality(csv.chunks[i], binary.chunks[i]);
      quarantined += csv.chunks[i].quality.rows_quarantined;
    }
  }
  EXPECT_GT(quarantined, 0u);
}

TEST(StagingDiffTest, TypeChangingDriftRefusesBinaryStagingOnly) {
  // The negotiation rule: drift that changes a matched column's staging type
  // compiles for CSV staging but returns Invalid for binary (callers fall
  // back to CSV for the session).
  Schema target;
  target.AddField(Field("A", TypeDesc::Varchar(10)));
  Schema drifted;
  drifted.AddField(Field("A", TypeDesc::Varchar(99)));  // VARCHAR(10) -> (99)
  EXPECT_TRUE(DataConverter::CreateRemapped(drifted, target, DataFormat::kVartext,
                                            kLegacyDelimiter, {}, cdw::StagingFormat::kCsv)
                  .ok());
  auto refused = DataConverter::CreateRemapped(drifted, target, DataFormat::kVartext,
                                               kLegacyDelimiter, {},
                                               cdw::StagingFormat::kBinary);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalid()) << refused.status().ToString();
}

TEST(StagingDiffTest, DriftFeedingOneFieldToTwoColumnsRefusesBinaryStagingOnly) {
  // Name matching is case-insensitive, so target columns A and a both take
  // source field A. CSV staging emits it twice; the HQB1 sink stages each
  // source field into one column, so binary staging is refused (callers
  // fall back to CSV for the session).
  Schema target;
  target.AddField(Field("A", TypeDesc::Int32()));
  target.AddField(Field("a", TypeDesc::Int32()));
  Schema drifted;
  drifted.AddField(Field("X", TypeDesc::Int32()));
  drifted.AddField(Field("A", TypeDesc::Int32()));
  EXPECT_TRUE(DataConverter::CreateRemapped(drifted, target, DataFormat::kBinary,
                                            kLegacyDelimiter, {}, cdw::StagingFormat::kCsv)
                  .ok());
  auto refused = DataConverter::CreateRemapped(drifted, target, DataFormat::kBinary,
                                               kLegacyDelimiter, {},
                                               cdw::StagingFormat::kBinary);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalid()) << refused.status().ToString();
}

}  // namespace
}  // namespace hyperq::core
