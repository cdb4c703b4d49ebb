#include "hyperq/coalescer.h"

namespace hyperq::core {

using common::Result;
using common::Status;

Result<legacy::Message> Coalescer::NextMessage() {
  if (decode_seconds_ == nullptr) return stream_.Receive();
  std::chrono::steady_clock::duration decode_elapsed{0};
  HQ_ASSIGN_OR_RETURN(legacy::Message msg, stream_.Receive(&decode_elapsed));
  last_decode_end_ = std::chrono::steady_clock::now();
  last_decode_elapsed_ = decode_elapsed;
  decode_seconds_->Observe(std::chrono::duration<double>(decode_elapsed).count());
  return msg;
}

Status Coalescer::Send(const legacy::Message& msg) { return stream_.Send(msg); }

}  // namespace hyperq::core
