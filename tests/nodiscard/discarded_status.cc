// Compile-check probe: only the bare drops at lines 10 and 11 may fail.
#include "common/result.h"

namespace hyperq::demo {

common::Status Flush();
common::Result<int> Count();

void Use() {
  Flush();
  Count();
  common::Status s = Flush();
  if (!s.ok()) return;
  Flush().ok();
  (void)Flush();
  // A deliberate drop is spelled as a cast, with its reason beside it.
  (void)Flush();
}

}  // namespace hyperq::demo
