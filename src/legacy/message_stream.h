#pragma once

#include <chrono>
#include <memory>

#include "common/bytes.h"
#include "legacy/parcel.h"
#include "net/transport.h"

/// \file message_stream.h
/// Whole-message send/receive over a byte-stream Transport. The client tool
/// uses this directly; on the Hyper-Q side the Coalescer process wraps the
/// same reassembly with instrumentation.

namespace hyperq::legacy {

/// Receive-side wire statistics of one stream.
struct ReceiveStats {
  uint64_t bytes_received = 0;
  uint64_t messages_formed = 0;
  uint64_t reads = 0;  ///< transport reads (fragments)
};

class MessageStream {
 public:
  explicit MessageStream(std::shared_ptr<net::Transport> transport)
      : transport_(std::move(transport)) {}

  /// Serializes and writes one message.
  common::Status Send(const Message& msg);

  /// Blocks for the next complete message. ProtocolError at EOF mid-frame;
  /// clean EOF between frames returns Cancelled. When `decode_elapsed` is
  /// non-null it receives the time spent parsing frames, excluding the
  /// blocking transport reads.
  common::Result<Message> Receive(
      std::chrono::steady_clock::duration* decode_elapsed = nullptr);

  const ReceiveStats& stats() const { return stats_; }
  net::Transport* transport() { return transport_.get(); }

 private:
  std::shared_ptr<net::Transport> transport_;
  std::vector<uint8_t> pending_;
  ReceiveStats stats_;
};

}  // namespace hyperq::legacy
