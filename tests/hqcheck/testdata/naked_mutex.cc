// Known-bad input for the naked-mutex rule.
#include <mutex>

namespace demo {

std::mutex g_mu;

void Locked() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::condition_variable cv;
  (void)cv;
}

// The string below must NOT trip the rule: literals are blanked.
const char* kDoc = "prefer std::mutex, they said";

std::mutex g_allowed;  // hqcheck:allow(naked-mutex)

}  // namespace demo
