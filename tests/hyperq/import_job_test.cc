#include "hyperq/import_job.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "legacy/row_format.h"

/// Direct ImportJob tests: the EndLoad/ApplyDml contract below the LDWP
/// surface, where a client can send any verb in any order.

namespace hyperq::core {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;

constexpr const char* kDml =
    "insert into PROD.CUSTOMER values ("
    "trim(:CUST_ID), trim(:CUST_NAME), "
    "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));";

class ImportJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cdw_ = std::make_unique<cdw::CdwServer>(&store_);
    Schema target;
    target.AddField(Field("CUST_ID", TypeDesc::Varchar(5), false));
    target.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    target.AddField(Field("JOIN_DATE", TypeDesc::Date()));
    ASSERT_TRUE(
        cdw_->catalog()->CreateTable("PROD.CUSTOMER", target, {"CUST_ID"}, true).ok());
  }

  static legacy::BeginLoadBody MakeBegin() {
    legacy::BeginLoadBody begin;
    begin.job_id = "j1";
    begin.target_table = "PROD.CUSTOMER";
    begin.format = legacy::DataFormat::kVartext;
    begin.delimiter = '|';
    begin.layout.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
    begin.layout.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    begin.layout.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
    return begin;
  }

  JobContext MakeContext() {
    JobContext ctx;
    ctx.cdw = cdw_.get();
    ctx.store = &store_;
    ctx.credits = &credits_;
    ctx.converter_pool = &pool_;
    ctx.memory = &memory_;
    // Per process: ctest runs the cases of this suite in parallel.
    ctx.options.local_staging_dir =
        ::testing::TempDir() + "hq_import_job_test." + std::to_string(::getpid());
    return ctx;
  }

  /// One vartext chunk; each record is "id|name|date" field texts.
  static legacy::DataChunkBody MakeChunk(
      uint64_t seq, const std::vector<std::vector<std::string>>& records) {
    common::ByteBuffer payload;
    for (const auto& fields : records) {
      legacy::VartextRecord record;
      for (const auto& text : fields) {
        legacy::VartextField field;
        field.text = text;
        field.null = text.empty();
        record.push_back(field);
      }
      EXPECT_TRUE(legacy::EncodeVartextRecord(record, '|', &payload).ok());
    }
    legacy::DataChunkBody chunk;
    chunk.chunk_seq = seq;
    chunk.row_count = static_cast<uint32_t>(records.size());
    chunk.payload = std::move(payload.vector());
    return chunk;
  }

  uint64_t CountRows(const std::string& table) {
    auto result = cdw_->ExecuteSql("SELECT COUNT(*) FROM " + table).ValueOrDie();
    return static_cast<uint64_t>(result.rows[0][0].int_value());
  }

  cloud::ObjectStore store_;
  std::unique_ptr<cdw::CdwServer> cdw_;
  CreditManager credits_{8};
  common::ThreadPool pool_{2};
  common::MemoryTracker memory_;
};

TEST_F(ImportJobTest, FailedEndLoadIsStickyAndApplyDmlLeavesTargetUntouched) {
  JobContext ctx = MakeContext();
  ctx.options.quality.spec = "PROD.CUSTOMER{CUST_NAME:pattern[Name*]}";
  ctx.options.quality.abort_over_threshold = true;
  ctx.options.quality.max_violation_rate = 0.1;
  auto job = ImportJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();
  // Row 1 violates the pattern (quarantined), row 2 is clean and staged.
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Name2", "2002-02-02"}}))
                  .ok());

  // 1 of 2 rows quarantined is over the 10% job watermark: EndLoad aborts.
  common::Status finished = job->FinishAcquisition(1, 2);
  EXPECT_TRUE(finished.IsConstraintViolation()) << finished.ToString();
  // A re-sent EndLoad gets the same failure, not "acquisition complete".
  common::Status resent = job->FinishAcquisition(1, 2);
  EXPECT_TRUE(resent.IsConstraintViolation()) << resent.ToString();

  // ApplyDml must not apply the staged clean row behind the abort's back.
  auto applied = job->ApplyDml("Ins", kDml);
  EXPECT_TRUE(applied.status().IsConstraintViolation()) << applied.status().ToString();
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 0u);
  EXPECT_EQ(CountRows(job->quarantine_table()), 1u) << "the quarantine survives the abort";
}

TEST_F(ImportJobTest, ShortRowsWriteTheirEtRowsInOneStatement) {
  auto job = ImportJob::Create("j1", MakeBegin(), MakeContext()).ValueOrDie();
  std::vector<std::vector<std::string>> records;
  for (int i = 1; i <= 1200; ++i) {
    if (i % 100 == 0) {
      records.push_back({std::to_string(i), "Ok", "2001-01-01"});
    } else {
      records.push_back({std::to_string(i), "Short"});
    }
  }
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, records)).ok());
  ASSERT_TRUE(job->FinishAcquisition(1, 1200).ok());

  // The apply sends the 1188 ET rows in one statement, then the DML.
  const uint64_t before = cdw_->statements_executed();
  auto report = job->ApplyDml("Ins", kDml);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(cdw_->statements_executed() - before, 2u);
  EXPECT_EQ(report->rows_inserted, 12u);
  EXPECT_EQ(report->et_errors, 1188u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER_ET"), 1188u);
}

}  // namespace
}  // namespace hyperq::core
