#include "stream/stream_job.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/fault.h"
#include "common/retry.h"
#include "legacy/row_format.h"

/// Direct StreamJob unit tests: micro-batch protocol enforcement (sequence,
/// watermark, end-of-stream), the commit-replay journal, drift accounting and
/// ledger bounding — everything below the LDWP surface the e2e exercises.

namespace hyperq::stream {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;

constexpr const char* kDml =
    "insert into PROD.CUSTOMER values ("
    "trim(:CUST_ID), trim(:CUST_NAME), "
    "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));";

Schema StreamLayout() {
  Schema layout;
  layout.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
  layout.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
  layout.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
  return layout;
}

class StreamJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetResilienceState();
    cdw_ = std::make_unique<cdw::CdwServer>(&store_);
    Schema target;
    target.AddField(Field("CUST_ID", TypeDesc::Varchar(5), false));
    target.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    target.AddField(Field("JOIN_DATE", TypeDesc::Date()));
    ASSERT_TRUE(
        cdw_->catalog()->CreateTable("PROD.CUSTOMER", target, {"CUST_ID"}, true).ok());
  }

  void TearDown() override { ResetResilienceState(); }

  static void ResetResilienceState() {
    common::FaultInjector::Global().ResetForTesting();
    common::RetryStats::Global().ResetForTesting();
    common::ResetBreakersForTesting();
  }

  legacy::BeginStreamBody MakeBegin() {
    legacy::BeginStreamBody begin;
    begin.job_id = "j1";
    begin.target_table = "PROD.CUSTOMER";
    begin.format = legacy::DataFormat::kVartext;
    begin.delimiter = '|';
    begin.layout = StreamLayout();
    begin.dml_label = "Ins";
    begin.dml_sql = kDml;
    return begin;
  }

  core::JobContext MakeContext() {
    core::JobContext ctx;
    ctx.cdw = cdw_.get();
    ctx.store = &store_;
    // Per process: ctest runs the cases of this suite in parallel.
    ctx.options.local_staging_dir =
        ::testing::TempDir() + "hq_stream_job_test." + std::to_string(::getpid());
    return ctx;
  }

  std::shared_ptr<StreamJob> MakeJob() {
    auto job = StreamJob::Create("j1", MakeBegin(), MakeContext());
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return job.ValueOrDie();
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
};

TEST_F(StreamJobTest, CreateRequiresExistingTargetTable) {
  auto begin = MakeBegin();
  begin.target_table = "PROD.NOPE";
  EXPECT_TRUE(StreamJob::Create("j1", begin, MakeContext()).status().IsNotFound());
}

TEST_F(StreamJobTest, CreateRequiresDml) {
  auto begin = MakeBegin();
  begin.dml_sql.clear();
  auto status = StreamJob::Create("j1", begin, MakeContext()).status();
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_NE(status.message().find("requires a DML statement"), std::string::npos);
}

TEST_F(StreamJobTest, CommitsApplyPerBatchAndAccumulate) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Bob", "2002-02-02"}}))
                  .ok());
  auto c1 = job->CommitBatch(1, 1000);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  EXPECT_EQ(c1->rows_in_batch, 2u);
  EXPECT_EQ(c1->rows_total, 2u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 2u);

  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"3", "Cyd", "2003-03-03"}})).ok());
  auto c2 = job->CommitBatch(2, 2000);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->rows_in_batch, 1u);
  EXPECT_EQ(c2->rows_total, 3u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u);

  auto report = job->Finish(2, 3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_inserted, 3u);
  // The accumulating staging table is dropped with the stream.
  EXPECT_FALSE(cdw_->catalog()->HasTable("HQ_STRM_j1"));
}

TEST_F(StreamJobTest, AppliedRowsArePrunedFromStaging) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Bob", "2002-02-02"}}))
                  .ok());
  ASSERT_TRUE(job->CommitBatch(1, 1000).ok());
  // The batch is applied to the target and retired from staging, so the
  // accumulating table stays O(open batch) instead of O(stream).
  EXPECT_EQ(CountRows("HQ_STRM_j1"), 0u);
  EXPECT_EQ(job->stats().staging_rows_pruned, 2u);

  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"3", "Cyd", "2003-03-03"}})).ok());
  ASSERT_TRUE(job->CommitBatch(2, 2000).ok());
  EXPECT_EQ(CountRows("HQ_STRM_j1"), 0u);
  EXPECT_EQ(job->stats().staging_rows_pruned, 3u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u);
}

TEST_F(StreamJobTest, OutOfSequenceCommitIsProtocolError) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  auto status = job->CommitBatch(5, 1000).status();
  EXPECT_TRUE(status.IsProtocolError());
  EXPECT_NE(status.message().find("commit for batch 5, expected 1"), std::string::npos);
}

TEST_F(StreamJobTest, WatermarkMustAdvance) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  ASSERT_TRUE(job->CommitBatch(1, 1000).ok());
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"2", "Bob", "2002-02-02"}})).ok());
  auto status = job->CommitBatch(2, 1000).status();
  EXPECT_TRUE(status.IsProtocolError());
  EXPECT_NE(status.message().find("watermark must advance"), std::string::npos);
  // The batch is still open; a correct watermark commits it.
  EXPECT_TRUE(job->CommitBatch(2, 1001).ok());
}

TEST_F(StreamJobTest, CommitReplayIsAnsweredFromJournal) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  auto first = job->CommitBatch(1, 1000);
  ASSERT_TRUE(first.ok());

  // Lost-reply replay: same batch_seq. No pipeline re-run, no new rows.
  auto replay = job->CommitBatch(1, 1000);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->batch_seq, first->batch_seq);
  EXPECT_EQ(replay->rows_in_batch, first->rows_in_batch);
  EXPECT_EQ(replay->rows_total, first->rows_total);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 1u);
  EXPECT_EQ(job->stats().commit_replays, 1u);
  EXPECT_EQ(job->stats().batches_committed, 1u);
}

TEST_F(StreamJobTest, ReplayOfAnOlderBatchIsOutOfSequence) {
  // The journal keeps only the last reply: a synchronous client can only
  // have lost that one.
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  ASSERT_TRUE(job->CommitBatch(1, 1000).ok());
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"2", "Bob", "2002-02-02"}})).ok());
  ASSERT_TRUE(job->CommitBatch(2, 2000).ok());

  auto replay = job->CommitBatch(1, 1000);
  EXPECT_TRUE(replay.status().IsProtocolError()) << replay.status().ToString();
  EXPECT_NE(replay.status().message().find("commit for batch 1, expected 3"),
            std::string::npos);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 2u);
  EXPECT_EQ(job->stats().commit_replays, 0u);
  EXPECT_EQ(job->stats().batches_committed, 2u);
}

TEST_F(StreamJobTest, RetriedCommitWritesEachAcquisitionEtRowOnce) {
  auto ctx = MakeContext();
  ctx.options.io_retry.max_attempts = 2;
  ctx.options.io_retry.initial_backoff_micros = 1;
  ctx.options.io_retry.max_backoff_micros = 10;
  auto job = StreamJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Bob"},
                                             {"3", "Cyd"},
                                             {"4", "Dee", "2004-04-04"}}))
                  .ok());

  // The batch's one ET insert is the commit's first statement; every
  // attempt of it fails, so nothing is written and the stream stays usable.
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,p=1").ok());
  ASSERT_FALSE(job->CommitBatch(1, 1000).ok());
  ResetResilienceState();
  EXPECT_EQ(CountRows("PROD.CUSTOMER_ET"), 0u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 0u);

  auto committed = job->CommitBatch(1, 1000);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->rows_in_batch, 2u);
  EXPECT_EQ(committed->et_errors, 2u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER_ET"), 2u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 2u);
  EXPECT_EQ(job->stats().commit_retries, 1u);
}

TEST_F(StreamJobTest, FinishWithUncommittedBatchFails) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  auto status = job->Finish(1, 1).status();
  EXPECT_TRUE(status.IsProtocolError());
  EXPECT_NE(status.message().find("uncommitted micro-batch"), std::string::npos);
  ASSERT_TRUE(job->CommitBatch(1, 1000).ok());
  EXPECT_TRUE(job->Finish(1, 1).ok());
}

TEST_F(StreamJobTest, FinishValidatesClientTotals) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  ASSERT_TRUE(job->CommitBatch(1, 1000).ok());
  auto status = job->Finish(7, 1).status();
  EXPECT_TRUE(status.IsProtocolError());
  EXPECT_NE(status.message().find("client reported 7 chunks"), std::string::npos);
  EXPECT_TRUE(job->Finish(1, 1).ok());
}

TEST_F(StreamJobTest, DriftRemapCountsAndLoadsNameMatchedFields) {
  auto job = MakeJob();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());
  ASSERT_TRUE(job->CommitBatch(1, 1000).ok());

  // Drift: CUST_NAME dropped, EXTRA added, remaining fields reordered.
  Schema drifted;
  drifted.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
  drifted.AddField(Field("EXTRA", TypeDesc::Varchar(8)));
  drifted.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
  ASSERT_TRUE(job->ChangeLayout(drifted).ok());
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"2002-02-02", "junk", "2"}})).ok());
  ASSERT_TRUE(job->CommitBatch(2, 2000).ok());

  StreamStats stats = job->stats();
  EXPECT_EQ(stats.layout_changes, 1u);
  EXPECT_EQ(stats.fields_dropped, 1u);  // EXTRA
  EXPECT_EQ(stats.fields_nulled, 1u);   // CUST_NAME
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 2u);
  auto row = cdw_->ExecuteSql("SELECT CUST_NAME FROM PROD.CUSTOMER WHERE CUST_ID = '2'")
                 .ValueOrDie();
  ASSERT_EQ(row.rows.size(), 1u);
  EXPECT_TRUE(row.rows[0][0].is_null());

  // Reverting to the original layout ends the drift window: the converter
  // goes back to the fused (non-remapped) plan.
  ASSERT_TRUE(job->ChangeLayout(StreamLayout()).ok());
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(3, {{"3", "Cyd", "2003-03-03"}})).ok());
  ASSERT_TRUE(job->CommitBatch(3, 3000).ok());
  EXPECT_EQ(job->stats().layout_changes, 2u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u);
}

TEST_F(StreamJobTest, CsvFallbackInsideAnOpenBatchCommitsEveryRowOnce) {
  // A type-changing drift under binary staging falls back to csv while the
  // batch already holds a binary file: the batch's files stay single-format
  // each, its COPY decodes them per object, and every row lands once.
  auto ctx = MakeContext();
  ctx.options.staging_format = cdw::StagingFormat::kBinary;
  auto job = StreamJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());

  Schema widened;  // CUST_NAME VARCHAR(50) -> VARCHAR(60) changes its staging type
  widened.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
  widened.AddField(Field("CUST_NAME", TypeDesc::Varchar(60)));
  widened.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
  ASSERT_TRUE(job->ChangeLayout(widened).ok());
  EXPECT_EQ(job->stats().format_fallbacks, 1u);
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"2", "Bob", "2002-02-02"}})).ok());
  auto committed = job->CommitBatch(1, 1000);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->rows_in_batch, 2u);

  // Later batches stage csv only.
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(3, {{"3", "Cyd", "2003-03-03"}})).ok());
  ASSERT_TRUE(job->CommitBatch(2, 2000).ok());
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u);
  EXPECT_TRUE(job->Finish(3, 3).ok());
}

TEST_F(StreamJobTest, ChangeLayoutToCurrentIsNoOp) {
  auto job = MakeJob();
  ASSERT_TRUE(job->ChangeLayout(StreamLayout()).ok());
  EXPECT_EQ(job->stats().layout_changes, 0u);
}

TEST_F(StreamJobTest, LedgerStaysBoundedAcrossBatches) {
  auto job = MakeJob();
  for (uint64_t batch = 1; batch <= 4; ++batch) {
    ASSERT_TRUE(job->SubmitChunk(MakeChunk(batch, {{std::to_string(batch), "N",
                                                    "2001-01-01"}}))
                    .ok());
    ASSERT_TRUE(job->CommitBatch(batch, batch * 1000).ok());
    EXPECT_LE(cdw_->CopyLedgerSize("HQ_STRM_j1"), 1u);
  }
  EXPECT_EQ(job->stats().ledger_evictions, 3u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 4u);
}

TEST_F(StreamJobTest, FailedCommitRetainsBatchForRetry) {
  auto ctx = MakeContext();
  ctx.options.io_retry.max_attempts = 2;
  ctx.options.io_retry.initial_backoff_micros = 1;
  ctx.options.io_retry.max_backoff_micros = 10;
  auto job = StreamJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Bob", "2002-02-02"}}))
                  .ok());

  // Every COPY attempt fails: the commit errors out, but the sealed batch
  // must survive — nothing committed, nothing discarded.
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.copy=error,p=1").ok());
  auto failed = job->CommitBatch(1, 1000);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 0u);
  EXPECT_EQ(job->stats().batches_committed, 0u);

  // Re-sent chunks for the pending batch are refused (they would stage the
  // sealed rows twice), and the stream can't end with the batch pending.
  auto resent = job->SubmitChunk(MakeChunk(2, {{"9", "Zoe", "2009-09-09"}}));
  EXPECT_TRUE(resent.IsProtocolError());
  EXPECT_NE(resent.message().find("pending retry"), std::string::npos);
  EXPECT_TRUE(job->Finish(1, 2).status().IsProtocolError());

  // A retried CommitBatch re-runs the pipeline on the retained rows: the
  // batch lands exactly once, not empty and not duplicated.
  ResetResilienceState();
  auto committed = job->CommitBatch(1, 1000);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->rows_in_batch, 2u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 2u);
  StreamStats stats = job->stats();
  EXPECT_EQ(stats.batches_committed, 1u);
  EXPECT_EQ(stats.commit_retries, 1u);
  EXPECT_EQ(stats.commit_replays, 0u);

  // The stream keeps going normally afterwards.
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(2, {{"3", "Cyd", "2003-03-03"}})).ok());
  ASSERT_TRUE(job->CommitBatch(2, 2000).ok());
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u);
  EXPECT_TRUE(job->Finish(2, 3).ok());
}

TEST_F(StreamJobTest, UnrecoverableDmlFailurePoisonsTheStream) {
  auto ctx = MakeContext();
  ctx.options.io_retry.max_attempts = 2;
  ctx.options.io_retry.initial_backoff_micros = 1;
  ctx.options.io_retry.max_backoff_micros = 10;
  ctx.options.max_retries = 1;
  auto job = StreamJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());

  // The DML apply is the one non-idempotent commit stage; exhausting it must
  // kill the stream rather than leave a retry that could double-apply.
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,p=1").ok());
  auto failed = job->CommitBatch(1, 1000);
  ASSERT_FALSE(failed.ok());

  // Even with the fault gone, the poisoned stream fails loudly everywhere —
  // a retried commit must NOT silently ack an empty batch.
  ResetResilienceState();
  auto retried = job->CommitBatch(1, 1000);
  ASSERT_FALSE(retried.ok());
  EXPECT_NE(retried.status().message().find("poisoned"), std::string::npos);
  EXPECT_FALSE(job->SubmitChunk(MakeChunk(2, {{"2", "Bob", "2002-02-02"}})).ok());
  EXPECT_FALSE(job->Finish(0, 0).ok());
  EXPECT_EQ(job->stats().batches_committed, 0u);
}

TEST_F(StreamJobTest, PoisonedStreamEndsTheJobAsFailed) {
  // A poisoned stream is over even though the node keeps it: it must leave
  // the active gauge, count as failed, and close its kStream trace.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  auto ctx = MakeContext();
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  ctx.options.io_retry.max_attempts = 1;
  ctx.options.max_retries = 1;
  auto job = StreamJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();
  EXPECT_EQ(registry.GetGauge("hyperq_stream_jobs_active")->value(), 1);
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"}})).ok());

  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,p=1").ok());
  ASSERT_FALSE(job->CommitBatch(1, 1000).ok());
  EXPECT_EQ(registry.GetGauge("hyperq_stream_jobs_active")->value(), 0);
  EXPECT_EQ(registry.GetCounter("hyperq_stream_jobs_failed_total")->value(), 1u);
  std::vector<obs::SpanRecord> spans = job->trace()->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].phase, obs::Phase::kStream);
  EXPECT_TRUE(spans[0].finished());
}

TEST_F(StreamJobTest, AbandonedChunkRecordsAllItsErrorsInEtTable) {
  auto ctx = MakeContext();
  ctx.options.io_retry.max_attempts = 2;
  ctx.options.io_retry.initial_backoff_micros = 1;
  ctx.options.io_retry.max_backoff_micros = 10;
  auto job = StreamJob::Create("j1", MakeBegin(), std::move(ctx)).ValueOrDie();

  // Staging appends always fail: the chunk is abandoned. Its bad-arity row's
  // conversion error must land in the ET table alongside the abandonment
  // marker, matching the counted data errors.
  ASSERT_TRUE(common::FaultInjector::Global().Arm("bulkload.file=error,p=1").ok());
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Bob"}}))
                  .ok());
  ResetResilienceState();

  auto committed = job->CommitBatch(1, 1000);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  StreamStats stats = job->stats();
  EXPECT_EQ(stats.chunks_abandoned, 1u);
  EXPECT_EQ(stats.data_errors, 2u);  // conversion error + abandonment marker
  EXPECT_EQ(CountRows("PROD.CUSTOMER_ET"), 2u) << "ET rows diverge from counted errors";
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 0u);
}

TEST_F(StreamJobTest, DataErrorsGoToEtTableAndDontBlockTheBatch) {
  auto job = MakeJob();
  // Middle record has the wrong arity: a data error, not a stream error.
  ASSERT_TRUE(job->SubmitChunk(MakeChunk(1, {{"1", "Ada", "2001-01-01"},
                                             {"2", "Bob"},
                                             {"3", "Cyd", "2003-03-03"}}))
                  .ok());
  auto committed = job->CommitBatch(1, 1000);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->rows_in_batch, 2u);
  EXPECT_EQ(committed->et_errors, 1u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 2u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER_ET"), 1u);
  EXPECT_EQ(job->stats().data_errors, 1u);
}

}  // namespace
}  // namespace hyperq::stream
