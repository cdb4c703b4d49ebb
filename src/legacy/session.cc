#include "legacy/session.h"

#include "legacy/row_format.h"

namespace hyperq::legacy {

using common::Result;
using common::Status;

namespace {

/// "[code] message" for a failed legacy reply, built by appends: the
/// `"[" + std::to_string(code) + ...` chain trips GCC 12's -Wrestrict once
/// inlined at -O3.
Status ReplyError(uint32_t code, const std::string& message) {
  std::string text = "[";
  text += std::to_string(code);
  text += "] ";
  text += message;
  return Status(common::StatusCode::kInvalid, std::move(text));
}

}  // namespace

Status LegacySession::SendParcel(Parcel parcel) {
  return stream_.Send(MakeMessage(session_id_, next_seq_++, std::move(parcel)));
}

Result<Message> LegacySession::SendAndReceive(Parcel parcel) {
  HQ_RETURN_NOT_OK(SendParcel(std::move(parcel)));
  return stream_.Receive();
}

Status LegacySession::CheckFailure(const Message& msg) {
  if (!msg.parcels.empty() && msg.parcels[0].kind == ParcelKind::kFailure) {
    HQ_ASSIGN_OR_RETURN(FailureBody failure, FailureBody::Decode(msg.parcels[0]));
    return ReplyError(failure.code, failure.message);
  }
  return Status::OK();
}

Status LegacySession::Logon(const std::string& host, const std::string& user,
                            const std::string& password) {
  LogonRequestBody body{host, user, password};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("empty logon response");
  HQ_ASSIGN_OR_RETURN(LogonOkBody ok, LogonOkBody::Decode(reply.parcels[0]));
  session_id_ = ok.session_id;
  return Status::OK();
}

Result<QueryResult> LegacySession::ExecuteSql(const std::string& sql) {
  RunRequestBody body{sql};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  QueryResult result;
  size_t i = 0;
  if (i >= reply.parcels.size()) return Status::ProtocolError("empty SQL response");
  HQ_ASSIGN_OR_RETURN(StatementStatusBody status, StatementStatusBody::Decode(reply.parcels[i]));
  ++i;
  result.activity_count = status.activity_count;
  result.message = status.message;
  if (status.code != 0) {
    return ReplyError(status.code, status.message);
  }
  if (i < reply.parcels.size() && reply.parcels[i].kind == ParcelKind::kDataSetHeader) {
    HQ_ASSIGN_OR_RETURN(DataSetHeaderBody header, DataSetHeaderBody::Decode(reply.parcels[i]));
    ++i;
    result.schema = std::move(header.schema);
    BinaryRowCodec codec(result.schema);
    while (i < reply.parcels.size() && reply.parcels[i].kind == ParcelKind::kRecord) {
      common::ByteReader reader(common::Slice(reply.parcels[i].payload));
      HQ_ASSIGN_OR_RETURN(types::Row row, codec.DecodeRow(&reader));
      result.rows.push_back(std::move(row));
      ++i;
    }
    if (i >= reply.parcels.size() || reply.parcels[i].kind != ParcelKind::kEndStatement) {
      return Status::ProtocolError("result set not terminated by EndStatement");
    }
  }
  return result;
}

Status LegacySession::BeginLoad(const BeginLoadBody& body) {
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty() || reply.parcels[0].kind != ParcelKind::kLoadReady) {
    return Status::ProtocolError("expected LoadReady");
  }
  return Status::OK();
}

Status LegacySession::SendDataChunk(const DataChunkBody& chunk) {
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(chunk.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("missing chunk ack");
  HQ_ASSIGN_OR_RETURN(ChunkAckBody ack, ChunkAckBody::Decode(reply.parcels[0]));
  if (ack.chunk_seq != chunk.chunk_seq) {
    return Status::ProtocolError("ack for chunk " + std::to_string(ack.chunk_seq) +
                                 ", expected " + std::to_string(chunk.chunk_seq));
  }
  return Status::OK();
}

Status LegacySession::EndLoad(uint64_t total_chunks, uint64_t total_rows) {
  EndLoadBody body{total_chunks, total_rows};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty() || reply.parcels[0].kind != ParcelKind::kStatementStatus) {
    return Status::ProtocolError("expected StatementStatus after EndLoad");
  }
  HQ_ASSIGN_OR_RETURN(StatementStatusBody status,
                      StatementStatusBody::Decode(reply.parcels[0]));
  if (status.code != 0) {
    return ReplyError(status.code, status.message);
  }
  return Status::OK();
}

Result<JobReportBody> LegacySession::ApplyDml(const std::string& label, const std::string& sql) {
  ApplyDmlBody body{label, sql};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("empty ApplyDml response");
  return JobReportBody::Decode(reply.parcels[0]);
}

Result<ExportReadyBody> LegacySession::BeginExport(const BeginExportBody& body) {
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("empty BeginExport response");
  return ExportReadyBody::Decode(reply.parcels[0]);
}

Result<ExportChunkBody> LegacySession::FetchExportChunk(uint64_t seq) {
  ExportChunkRequestBody body{seq};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("empty export chunk response");
  return ExportChunkBody::Decode(reply.parcels[0]);
}

Status LegacySession::EndExport() {
  Parcel parcel;
  parcel.kind = ParcelKind::kEndExport;
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(std::move(parcel)));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  return Status::OK();
}

Status LegacySession::BeginStream(const BeginStreamBody& body) {
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty() || reply.parcels[0].kind != ParcelKind::kStreamReady) {
    return Status::ProtocolError("expected StreamReady");
  }
  return Status::OK();
}

Status LegacySession::SendStreamLayout(const types::Schema& layout) {
  StreamLayoutBody body{layout};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty() || reply.parcels[0].kind != ParcelKind::kStatementStatus) {
    return Status::ProtocolError("expected StatementStatus after StreamLayout");
  }
  HQ_ASSIGN_OR_RETURN(StatementStatusBody status,
                      StatementStatusBody::Decode(reply.parcels[0]));
  if (status.code != 0) {
    return ReplyError(status.code, status.message);
  }
  return Status::OK();
}

Result<BatchCommittedBody> LegacySession::CommitBatch(uint64_t batch_seq,
                                                      uint64_t watermark_micros) {
  CommitBatchBody body{batch_seq, watermark_micros};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("empty CommitBatch response");
  HQ_ASSIGN_OR_RETURN(BatchCommittedBody committed,
                      BatchCommittedBody::Decode(reply.parcels[0]));
  if (committed.batch_seq != batch_seq) {
    return Status::ProtocolError("BatchCommitted for batch " +
                                 std::to_string(committed.batch_seq) + ", expected " +
                                 std::to_string(batch_seq));
  }
  return committed;
}

Result<JobReportBody> LegacySession::EndStream(uint64_t total_chunks, uint64_t total_rows) {
  EndStreamBody body{total_chunks, total_rows};
  HQ_ASSIGN_OR_RETURN(Message reply, SendAndReceive(body.Encode()));
  HQ_RETURN_NOT_OK(CheckFailure(reply));
  if (reply.parcels.empty()) return Status::ProtocolError("empty EndStream response");
  return JobReportBody::Decode(reply.parcels[0]);
}

Status LegacySession::Logoff() {
  Parcel parcel;
  parcel.kind = ParcelKind::kLogoff;
  HQ_RETURN_NOT_OK(SendParcel(std::move(parcel)));
  stream_.transport()->Close();
  return Status::OK();
}

}  // namespace hyperq::legacy
