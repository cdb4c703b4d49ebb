#include "cdw/staging_binary.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdw/copy.h"
#include "cdw/table.h"
#include "cloudstore/compression.h"
#include "cloudstore/object_store.h"
#include "common/random.h"
#include "hyperq/data_converter.h"
#include "legacy/row_format.h"
#include "types/date.h"

/// HQB1 negative-path suite: COPY FORMAT BINARY must reject malformed
/// headers, truncated files and inconsistent sections with a clean error and
/// the table unchanged — never crash, never partially append. Valid blocks
/// are produced by the real encoder (DataConverter with binary staging), so
/// the corruptions here are byte surgery on genuine wire bytes.

namespace hyperq::cdw {
namespace {

using common::Slice;
using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

Schema LoadLayout() {
  Schema layout;
  layout.AddField(Field("ID", TypeDesc::Int32()));
  layout.AddField(Field("NAME", TypeDesc::Varchar(12)));
  return layout;
}

/// One valid single-block HQB1 object for LoadLayout()'s staging schema
/// (ID INTEGER, NAME VARCHAR(12), HQ_ROWNUM BIGINT), with a NULL mixed in.
std::vector<uint8_t> ValidObject(uint32_t rows = 3) {
  Schema layout = LoadLayout();
  legacy::BinaryRowCodec codec(layout);
  common::ByteBuffer payload;
  for (uint32_t i = 0; i < rows; ++i) {
    types::Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i) + 1));
    // Appends, not `"n" + std::to_string(i)`: GCC 12 -Wrestrict at -O3.
    std::string text = "n";
    text += std::to_string(i);
    row.push_back(i % 3 == 1 ? Value::Null() : Value::String(text));
    EXPECT_TRUE(codec.EncodeRow(row, &payload).ok());
  }
  auto converter = core::DataConverter::Create(layout, legacy::DataFormat::kBinary, '|', {},
                                               StagingFormat::kBinary)
                       .ValueOrDie();
  core::ConversionInput input;
  input.first_row_number = 1;
  input.chunk.row_count = rows;
  input.chunk.payload = payload.vector();
  auto converted = converter.Convert(input);
  EXPECT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ(converted->rows_out, rows);
  return converted->csv.vector();
}

Table StagingTable() {
  return Table("STG", core::MakeStagingSchema(LoadLayout()).ValueOrDie());
}

/// Stages `bytes` as one object and runs COPY FORMAT BINARY against a fresh
/// staging table; on error the table must be untouched.
common::Result<uint64_t> CopyBytes(const std::vector<uint8_t>& bytes, Table* table,
                                   CopyFormat format = CopyFormat::kBinary) {
  cloud::ObjectStore store;
  EXPECT_TRUE(store.Put("neg/part_0.hqb", Slice(bytes)).ok());
  CopyOptions options;
  options.format = format;
  auto copied = CopyFromStore(table, store, "neg/", options);
  if (!copied.ok()) {
    EXPECT_EQ(table->num_rows(), 0u) << "failed COPY must not append";
  }
  return copied;
}

TEST(StagingBinaryTest, ValidObjectLoads) {
  Table table = StagingTable();
  auto copied = CopyBytes(ValidObject(), &table);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 3u);
  EXPECT_EQ(table.At(0, 0).int_value(), 1);
  EXPECT_EQ(table.At(0, 1).string_value(), "n0");
  EXPECT_TRUE(table.At(1, 1).is_null());
  EXPECT_EQ(table.At(2, 2).int_value(), 3);  // HQ_ROWNUM
}

TEST(StagingBinaryTest, SniffRecognizesOnlyHqb1) {
  EXPECT_TRUE(IsHqb1(Slice(ValidObject())));
  EXPECT_FALSE(IsHqb1(Slice(std::string_view("1,Ada,2001-01-01\n"))));
  EXPECT_FALSE(IsHqb1(Slice(std::string_view("HQB"))));  // shorter than the magic
  EXPECT_FALSE(IsHqb1(Slice(std::string_view(""))));
}

TEST(StagingBinaryTest, FingerprintCoversNamesTypesAndNullability) {
  // Rebuild the two-field prefix of the staging schema with one attribute
  // perturbed at a time: every perturbation must move the fingerprint.
  auto variant = [](const char* name0, TypeDesc t0, TypeDesc t1, bool nullable1) {
    Schema s;
    s.AddField(Field(name0, t0));
    s.AddField(Field("NAME", t1, nullable1));
    return SchemaFingerprint(s);
  };
  const uint64_t fp = variant("ID", TypeDesc::Int32(), TypeDesc::Varchar(12), true);
  EXPECT_EQ(fp, variant("ID", TypeDesc::Int32(), TypeDesc::Varchar(12), true))
      << "fingerprint must be deterministic";
  EXPECT_NE(fp, variant("IDX", TypeDesc::Int32(), TypeDesc::Varchar(12), true));
  EXPECT_NE(fp, variant("ID", TypeDesc::Int64(), TypeDesc::Varchar(12), true));
  EXPECT_NE(fp, variant("ID", TypeDesc::Int32(), TypeDesc::Varchar(13), true));
  EXPECT_NE(fp, variant("ID", TypeDesc::Int32(), TypeDesc::Varchar(12), false));
}

TEST(StagingBinaryTest, BadMagicIsRejected) {
  std::vector<uint8_t> bytes = ValidObject();
  bytes[0] = 'X';
  Table table = StagingTable();
  auto copied = CopyBytes(bytes, &table);
  ASSERT_FALSE(copied.ok());
  EXPECT_TRUE(copied.status().IsConversionError()) << copied.status().ToString();
}

TEST(StagingBinaryTest, UnsupportedVersionIsRejected) {
  std::vector<uint8_t> bytes = ValidObject();
  bytes[4] = 2;  // version u16 LE at +4
  Table table = StagingTable();
  auto copied = CopyBytes(bytes, &table);
  ASSERT_FALSE(copied.ok());
  EXPECT_TRUE(copied.status().IsConversionError()) << copied.status().ToString();
}

TEST(StagingBinaryTest, FingerprintMismatchIsRejected) {
  std::vector<uint8_t> bytes = ValidObject();
  bytes[8] ^= 0xff;  // layout fingerprint u64 at +8
  Table table = StagingTable();
  auto copied = CopyBytes(bytes, &table);
  ASSERT_FALSE(copied.ok());
  EXPECT_TRUE(copied.status().IsConversionError()) << copied.status().ToString();
  EXPECT_NE(copied.status().ToString().find("fingerprint"), std::string::npos);
}

TEST(StagingBinaryTest, ForgedFingerprintCannotBuyInMismatchedDescriptors) {
  // The fingerprint is carried IN the header, so a corrupt block could copy
  // the table's fingerprint while its descriptors describe something else.
  // Build a valid block for a DIFFERENT layout (DATE instead of INTEGER —
  // same 4-byte width, so the sections parse fine), forge the fingerprint to
  // the target table's, and require the field-by-field re-check to fire.
  Schema other;
  other.AddField(Field("ID", TypeDesc::Date()));
  other.AddField(Field("NAME", TypeDesc::Varchar(12)));
  legacy::BinaryRowCodec codec(other);
  common::ByteBuffer payload;
  types::Row row;
  row.push_back(Value::Date(types::DaysFromYmd(2020, 1, 2).ValueOrDie()));
  row.push_back(Value::String("x"));
  ASSERT_TRUE(codec.EncodeRow(row, &payload).ok());
  auto converter = core::DataConverter::Create(other, legacy::DataFormat::kBinary, '|', {},
                                               StagingFormat::kBinary)
                       .ValueOrDie();
  core::ConversionInput input;
  input.first_row_number = 1;
  input.chunk.row_count = 1;
  input.chunk.payload = payload.vector();
  std::vector<uint8_t> bytes = converter.Convert(input).ValueOrDie().csv.vector();

  Table table = StagingTable();
  const uint64_t forged = SchemaFingerprint(table.schema());
  std::memcpy(bytes.data() + 8, &forged, 8);
  auto copied = CopyBytes(bytes, &table);
  ASSERT_FALSE(copied.ok());
  EXPECT_TRUE(copied.status().IsConversionError()) << copied.status().ToString();
  EXPECT_NE(copied.status().ToString().find("descriptor"), std::string::npos)
      << copied.status().ToString();
}

TEST(StagingBinaryTest, EveryTruncationFailsCleanly) {
  // Chop the object at every possible length: COPY must error (truncation
  // can never pass validation) and never touch the table. This is the
  // "truncated file" half of the fuzz gate.
  const std::vector<uint8_t> bytes = ValidObject();
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    if (len == 0) continue;  // empty object is legitimately zero rows
    Table table = StagingTable();
    auto copied = CopyBytes(cut, &table);
    ASSERT_FALSE(copied.ok()) << "truncation to " << len << " bytes loaded "
                              << (copied.ok() ? *copied : 0) << " rows";
    EXPECT_TRUE(copied.status().IsConversionError() || copied.status().IsProtocolError())
        << "len " << len << ": " << copied.status().ToString();
  }
}

TEST(StagingBinaryTest, RandomByteFlipsNeverCrashOrPartiallyAppend) {
  // Fuzz-style: random byte flips over the whole object. A flip in value
  // bytes may load (wrong data is data); a flip in structure must fail with
  // the table unchanged. Either way: no crash, no partial append.
  const std::vector<uint8_t> pristine = ValidObject(/*rows=*/16);
  for (uint64_t seed = 0; seed < 300; ++seed) {
    common::Random rng(seed);
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    Table table = StagingTable();
    auto copied = CopyBytes(bytes, &table);
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (copied.ok()) {
      EXPECT_EQ(table.num_rows(), *copied);
    } else {
      EXPECT_EQ(table.num_rows(), 0u);
    }
  }
}

TEST(StagingBinaryTest, ForcedCsvFormatRejectsHqb1Bytes) {
  // FORMAT CSV on binary bytes must fail like any malformed text object —
  // the negotiation rule, not a silent sniff-override.
  Table table = StagingTable();
  auto copied = CopyBytes(ValidObject(), &table, CopyFormat::kCsv);
  ASSERT_FALSE(copied.ok());
  EXPECT_TRUE(copied.status().IsConversionError() || copied.status().IsParseError())
      << copied.status().ToString();
}

TEST(StagingBinaryTest, AutoSniffLoadsMixedFormatPrefixAndLedgerDedups) {
  // The stream drift fallback leaves a prefix holding both .hqb and .csv
  // objects; kAuto must load both, tag the ledger per format, and a full
  // retry must not double-ingest.
  Table table = StagingTable();
  cloud::ObjectStore store;
  ASSERT_TRUE(store.Put("mix/part_0.hqb", Slice(ValidObject())).ok());
  ASSERT_TRUE(
      store.Put("mix/part_1.csv", Slice(std::string_view("7,Greta,4\n8,,5\n"))).ok());
  std::map<std::string, uint64_t> ledger;
  CopyStats stats;
  auto first = CopyFromStore(&table, store, "mix/", CopyOptions{}, &ledger, &stats);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 5u);
  EXPECT_EQ(stats.binary_files, 1u);
  EXPECT_EQ(stats.binary_rows, 3u);
  EXPECT_EQ(stats.csv_files, 1u);
  EXPECT_EQ(stats.csv_rows, 2u);
  EXPECT_EQ(ledger.count("mix/part_0.hqb#bin"), 1u);
  EXPECT_EQ(ledger.count("mix/part_1.csv#csv"), 1u);

  auto retry = CopyFromStore(&table, store, "mix/", CopyOptions{}, &ledger);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, 5u) << "retry must report the cumulative count";
  EXPECT_EQ(table.num_rows(), 5u) << "retry must not double-ingest";
}

TEST(StagingBinaryTest, ConcatenatedBlocksLoadInOrder) {
  // A staging file is a concatenation of per-chunk blocks; COPY must parse
  // them back-to-back from one object.
  std::vector<uint8_t> a = ValidObject(2);
  const std::vector<uint8_t> b = ValidObject(3);
  a.insert(a.end(), b.begin(), b.end());
  Table table = StagingTable();
  auto copied = CopyBytes(a, &table);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 5u);
  EXPECT_EQ(table.num_rows(), 5u);
}

TEST(StagingBinaryTest, CompressedBinaryObjectAutoDecompresses) {
  common::ByteBuffer compressed;
  cloud::Compress(Slice(ValidObject()), &compressed);
  Table table = StagingTable();
  auto copied = CopyBytes(compressed.vector(), &table);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 3u);
}

}  // namespace
}  // namespace hyperq::cdw
