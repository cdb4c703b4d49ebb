#pragma once

#include <chrono>
#include <memory>

#include "legacy/message_stream.h"
#include "legacy/parcel.h"
#include "net/transport.h"
#include "obs/metrics.h"

/// \file coalescer.h
/// The Coalescer process (paper Section 3): "interacts with a Coalescer
/// process to form complete TCP messages from the raw bytes received over
/// the wire". Wraps legacy::MessageStream's frame reassembly and adds the
/// decode-time instrumentation.

namespace hyperq::core {

using CoalescerStats = legacy::ReceiveStats;

class Coalescer {
 public:
  explicit Coalescer(std::shared_ptr<net::Transport> transport) : stream_(std::move(transport)) {}

  /// Blocks for the next complete message. Cancelled = clean EOF.
  common::Result<legacy::Message> NextMessage();

  /// Sends one message back to the client.
  common::Status Send(const legacy::Message& msg);

  /// Observes pure decode time (frame parsing, excluding the blocking
  /// transport reads) per formed message. Null disables.
  void BindDecodeHistogram(obs::Histogram* decode_seconds) { decode_seconds_ = decode_seconds; }

  /// Decode cost of the most recent message, for post-hoc span attribution
  /// (the owning job is only known after the parcel is decoded). The
  /// interval ends when the message was formed and spans the accumulated
  /// parse time.
  std::chrono::steady_clock::time_point last_decode_end() const { return last_decode_end_; }
  std::chrono::steady_clock::duration last_decode_elapsed() const { return last_decode_elapsed_; }

  const CoalescerStats& stats() const { return stream_.stats(); }
  net::Transport* transport() { return stream_.transport(); }

 private:
  legacy::MessageStream stream_;
  obs::Histogram* decode_seconds_ = nullptr;
  std::chrono::steady_clock::time_point last_decode_end_;
  std::chrono::steady_clock::duration last_decode_elapsed_{0};
};

}  // namespace hyperq::core
