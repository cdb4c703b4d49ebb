#include "legacy/message_stream.h"

namespace hyperq::legacy {

using common::ByteBuffer;
using common::Result;
using common::Slice;
using common::Status;

Status MessageStream::Send(const Message& msg) {
  ByteBuffer buf;
  EncodeMessage(msg, &buf);
  return transport_->Write(buf.AsSlice());
}

Result<Message> MessageStream::Receive(std::chrono::steady_clock::duration* decode_elapsed) {
  for (;;) {
    Message msg;
    const auto decode_start = decode_elapsed != nullptr ? std::chrono::steady_clock::now()
                                                        : std::chrono::steady_clock::time_point();
    HQ_ASSIGN_OR_RETURN(size_t consumed, TryDecodeMessage(Slice(pending_), &msg));
    if (decode_elapsed != nullptr) *decode_elapsed += std::chrono::steady_clock::now() - decode_start;
    if (consumed > 0) {
      pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(consumed));
      ++stats_.messages_formed;
      return msg;
    }
    uint8_t buf[64 * 1024];
    HQ_ASSIGN_OR_RETURN(size_t n, transport_->Read(buf, sizeof(buf)));
    if (n == 0) {
      if (pending_.empty()) return Status::Cancelled("connection closed");
      return Status::ProtocolError("connection closed mid-frame");
    }
    ++stats_.reads;
    stats_.bytes_received += n;
    pending_.insert(pending_.end(), buf, buf + n);
  }
}

}  // namespace hyperq::legacy
