// Compile-check probe: drops a Status on purpose. The nodiscard.status
// ctest compiles this file with -Werror and passes only when the compiler
// rejects the dropped value with its nodiscard diagnostic.
#include "common/status.h"

namespace hyperq::common {

Status Flush();

void DropStatus() { Flush(); }

}  // namespace hyperq::common
