// A file every rule is happy with: a ranked global mutex and a factory.
#include <memory>

#include "common/sync.h"

namespace demo {

common::Mutex g_mu{common::LockRank::kJob, "clean"};
int g_value = 0;

void Bump() {
  common::MutexLock lock(&g_mu);
  ++g_value;
}

std::unique_ptr<int> Make() { return std::make_unique<int>(7); }

}  // namespace demo
