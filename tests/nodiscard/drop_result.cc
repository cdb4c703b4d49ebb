// Compile-check probe: drops a Result<int> on purpose. The nodiscard.result
// ctest compiles this file with -Werror and passes only when the compiler
// rejects the dropped value with its nodiscard diagnostic.
#include "common/result.h"

namespace hyperq::common {

Result<int> Count();

void DropResult() { Count(); }

}  // namespace hyperq::common
