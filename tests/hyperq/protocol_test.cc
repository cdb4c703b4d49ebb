#include <unistd.h>

#include <gtest/gtest.h>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "hyperq/server.h"
#include "legacy/session.h"

namespace hyperq::core {
namespace {

/// Wire-protocol robustness: drives HyperQServer with a raw LegacySession
/// (no ETL client) and checks the Failure replies and error codes the Beta /
/// PXC path produces.
class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : cdw_(&store_) {
    HyperQOptions options;
    options.local_staging_dir = std::string("/tmp/hq_protocol_test.") + std::to_string(::getpid()) + "/staging";
    node_ = std::make_unique<HyperQServer>(&cdw_, &store_, options);
    node_->Start();
  }

  ~ProtocolTest() override { node_->Stop(); }

  std::unique_ptr<legacy::LegacySession> Connect() {
    auto session = std::make_unique<legacy::LegacySession>(node_->Connect());
    EXPECT_TRUE(session->Logon("hq", "u", "p").ok());
    return session;
  }

  cloud::ObjectStore store_;
  cdw::CdwServer cdw_;
  std::unique_ptr<HyperQServer> node_;
};

TEST_F(ProtocolTest, LogonAssignsDistinctSessionIds) {
  auto s1 = Connect();
  auto s2 = Connect();
  EXPECT_NE(s1->session_id(), 0u);
  EXPECT_NE(s1->session_id(), s2->session_id());
}

TEST_F(ProtocolTest, SyntaxErrorReturnsLegacyCode3706) {
  auto session = Connect();
  auto result = session->ExecuteSql("SELEKT * FROM nowhere");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("[3706]"), std::string::npos);
}

TEST_F(ProtocolTest, OversizedNumericLiteralReturnsLegacyCode3706AndNodeSurvives) {
  auto session = Connect();
  for (const char* sql : {"SELECT 99999999999999999999", "SELECT 1.5e999999",
                          "SELECT TOP 99999999999999999999 * FROM T",
                          "SELECT CAST(1 AS VARCHAR(99999999999))"}) {
    auto result = session->ExecuteSql(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_NE(result.status().message().find("[3706]"), std::string::npos)
        << sql << ": " << result.status().ToString();
  }
  auto alive = session->ExecuteSql("SELECT 1");
  EXPECT_TRUE(alive.ok()) << alive.status().ToString();
}

TEST_F(ProtocolTest, MissingTableReturnsLegacyCode3807) {
  auto session = Connect();
  auto result = session->ExecuteSql("SELECT * FROM NO.SUCH_TABLE");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("[3807]"), std::string::npos);
}

TEST_F(ProtocolTest, DuplicateKeyReturnsLegacyCode2801) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE U (K INTEGER, PRIMARY KEY (K))").ok());
  ASSERT_TRUE(session->ExecuteSql("INSERT INTO U VALUES (1)").ok());
  auto result = session->ExecuteSql("INSERT INTO U VALUES (1)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("[2801]"), std::string::npos);
}

TEST_F(ProtocolTest, DataChunkBeforeBeginLoadIsProtocolFailure) {
  auto session = Connect();
  legacy::DataChunkBody chunk;
  chunk.chunk_seq = 0;
  chunk.row_count = 1;
  chunk.payload = {0, 0};
  auto s = session->SendDataChunk(chunk);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("DataChunk before BeginLoad"), std::string::npos);
}

TEST_F(ProtocolTest, EndLoadBeforeBeginLoadIsProtocolFailure) {
  auto session = Connect();
  EXPECT_FALSE(session->EndLoad(0, 0).ok());
}

TEST_F(ProtocolTest, ApplyDmlBeforeBeginLoadIsProtocolFailure) {
  auto session = Connect();
  EXPECT_FALSE(session->ApplyDml("L", "INSERT INTO t VALUES (1)").ok());
}

TEST_F(ProtocolTest, ExportChunkRequestBeforeBeginExportIsProtocolFailure) {
  auto session = Connect();
  EXPECT_FALSE(session->FetchExportChunk(0).ok());
}

TEST_F(ProtocolTest, BeginLoadAgainstMissingTargetFails) {
  auto session = Connect();
  legacy::BeginLoadBody begin;
  begin.job_id = "proto_job";
  begin.target_table = "NOT.THERE";
  begin.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  EXPECT_FALSE(session->BeginLoad(begin).ok());
}

TEST_F(ProtocolTest, BeginStreamOnBatchLoadSessionIsRefused) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE MX1 (A VARCHAR(5))").ok());
  legacy::BeginLoadBody load;
  load.job_id = "mx1_load";
  load.target_table = "MX1";
  load.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  ASSERT_TRUE(session->BeginLoad(load).ok());
  // A session serves either a batch load or a stream, never both: routing
  // chunks of an in-flight load into a stream would corrupt the load.
  legacy::BeginStreamBody stream;
  stream.job_id = "mx1_stream";
  stream.target_table = "MX1";
  stream.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  stream.dml_sql = "insert into MX1 values (:A);";
  auto s = session->BeginStream(stream);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("BeginStream refused"), std::string::npos);
}

TEST_F(ProtocolTest, BeginLoadOnStreamSessionIsRefused) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE MX2 (A VARCHAR(5))").ok());
  legacy::BeginStreamBody stream;
  stream.job_id = "mx2_stream";
  stream.target_table = "MX2";
  stream.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  stream.dml_sql = "insert into MX2 values (:A);";
  ASSERT_TRUE(session->BeginStream(stream).ok());
  legacy::BeginLoadBody load;
  load.job_id = "mx2_load";
  load.target_table = "MX2";
  load.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  auto s = session->BeginLoad(load);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("BeginLoad refused"), std::string::npos);
}

TEST_F(ProtocolTest, ChunkAcksEchoSequenceNumbers) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE T1 (A VARCHAR(5))").ok());
  legacy::BeginLoadBody begin;
  begin.job_id = "proto_job2";
  begin.target_table = "T1";
  begin.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  ASSERT_TRUE(session->BeginLoad(begin).ok());
  for (uint64_t seq : {7u, 9u, 11u}) {
    common::ByteBuffer payload;
    ASSERT_TRUE(legacy::EncodeVartextRecord({{false, "x"}}, '|', &payload).ok());
    legacy::DataChunkBody chunk;
    chunk.chunk_seq = seq;
    chunk.row_count = 1;
    chunk.payload = payload.vector();
    // SendDataChunk verifies the ack echoes the same sequence number.
    ASSERT_TRUE(session->SendDataChunk(chunk).ok()) << seq;
  }
}

TEST_F(ProtocolTest, ResultSetsTravelInLegacyBinaryFormat) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE R (ID INTEGER, D DATE)").ok());
  ASSERT_TRUE(session->ExecuteSql("INSERT INTO R VALUES (5, DATE '2012-12-01')").ok());
  auto result = session->ExecuteSql("SELECT ID, D FROM R").ValueOrDie();
  ASSERT_TRUE(result.has_result_set());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 5);
  // DATE came across the wire in the legacy int32 encoding and back.
  EXPECT_EQ(result.rows[0][1].date_days(), types::DaysFromYmd(2012, 12, 1).ValueOrDie());
}

TEST_F(ProtocolTest, ActivityCountsReported) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE AC (A INTEGER)").ok());
  EXPECT_EQ(session->ExecuteSql("INSERT INTO AC VALUES (1), (2), (3)").ValueOrDie()
                .activity_count,
            3u);
  EXPECT_EQ(session->ExecuteSql("UPDATE AC SET A = 0 WHERE A > 1").ValueOrDie().activity_count,
            2u);
  EXPECT_EQ(session->ExecuteSql("DELETE FROM AC").ValueOrDie().activity_count, 3u);
}

TEST_F(ProtocolTest, ServerSurvivesAbruptDisconnect) {
  {
    auto transport = node_->Connect();
    legacy::LegacySession session(transport);
    ASSERT_TRUE(session.Logon("hq", "u", "p").ok());
    transport->Close();  // vanish without logoff
  }
  // The node still accepts and serves new sessions.
  auto session = Connect();
  EXPECT_TRUE(session->ExecuteSql("SELECT 1").ok());
}

TEST_F(ProtocolTest, StopClosesLingeringSessions) {
  auto session = Connect();  // never logs off
  node_->Stop();             // must not hang (see server.cc Stop)
  SUCCEED();
}

}  // namespace
}  // namespace hyperq::core
