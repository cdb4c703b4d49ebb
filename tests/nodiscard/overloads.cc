// Compile-check probe: overload resolution, not the callee's name, decides
// whether a bare call drops a Status. Only line 12 may fail.
#include "common/status.h"

namespace hyperq::demo {

common::Status Add(int v);
void Add(double v);

void Use() {
  Add(1.0);
  Add(1);
}

}  // namespace hyperq::demo
