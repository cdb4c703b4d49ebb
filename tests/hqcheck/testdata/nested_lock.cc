// Nested acquisitions for lock-nesting; ranks come from the declarations.
#include "common/sync.h"

namespace demo {

common::Mutex g_outer{common::LockRank::kServer, "outer"};
common::Mutex g_inner{common::LockRank::kQueue, "inner"};
common::Mutex g_peer{common::LockRank::kServer, "peer"};

void NoMarker() {
  common::MutexLock outer(&g_outer);
  common::MutexLock inner(&g_inner);
}

void BadMarker() {
  common::MutexLock outer(&g_outer);
  // kServer > kQueue
  common::MutexLock inner(&g_inner);
}

void UnknownRank() {
  common::MutexLock outer(&g_outer);
  common::MutexLock inner(&g_inner);
}

void GoodMarker() {
  common::MutexLock outer(&g_outer);
  // kServer > kQueue
  common::MutexLock inner(&g_inner);
}

void OrderedPair() {
  common::MutexLock2 both(&g_outer, &g_peer);
}

void SequentialScopesAreFine() {
  {
    common::MutexLock lock(&g_outer);
  }
  common::MutexLock lock(&g_inner);
}

}  // namespace demo
