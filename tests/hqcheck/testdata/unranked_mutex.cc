// Known-bad input for lock-rank: mutexes declared without a LockRank.
#include "common/sync.h"

namespace demo {

common::Mutex g_bad;
common::Mutex g_good{common::LockRank::kJob, "good"};
common::Mutex g_wrapped{
    common::LockRank::kQueue, "wrapped"};

class Holder {
 public:
  void Touch(common::Mutex* mu);  // pointer parameter: a use, not a declaration

 private:
  mutable common::Mutex mu_;
  common::Mutex allowed_;  // hqcheck:allow(lock-rank)
};

}  // namespace demo
