// Known-bad input for the stale-allow audit: a marker whose violation has
// been fixed, a typoed rule name, and a live marker that must stay silent.

namespace demo {

int fixed_long_ago = 0;  // hqcheck:allow(naked-mutex)

int typoed = 0;  // hqcheck:allow(nakedmutex)

// A live suppression: the std::mutex below would fire naked-mutex.
std::mutex g_still_needed;  // hqcheck:allow(naked-mutex)

// An audited stale marker kept deliberately (e.g. about to be re-enabled):
int parked = 0;  // hqcheck:allow(new-delete) hqcheck:allow(stale-allow)

}  // namespace demo
