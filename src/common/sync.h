#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <source_location>
#include <vector>

/// \file sync.h
/// The project's only sanctioned synchronization layer: Clang
/// thread-safety-annotated wrappers over std::mutex /
/// std::condition_variable. Every lock in the codebase goes through these
/// types so that `clang++ -Werror=thread-safety` can prove, at compile time,
/// which fields each mutex guards and which methods require or exclude it.
/// On non-Clang compilers the annotations expand to nothing and the wrappers
/// are near-zero-cost shims over the std primitives.
///
/// Rules (enforced by tools/hqcheck):
///  - No naked std::mutex / std::lock_guard / std::unique_lock /
///    std::condition_variable outside this header (rule `naked-mutex`).
///  - Guarded fields carry HQ_GUARDED_BY(mu_); methods that assume the lock
///    is held carry HQ_REQUIRES(mu_); public entry points that take the lock
///    carry HQ_EXCLUDES(mu_).
///  - Condition-variable predicates are written as explicit while-loops in
///    the locked scope (not as lambdas handed to wait()) so the analysis can
///    see the guarded reads.
///  - Every Mutex declares a LockRank (rule `lock-rank`), and a MutexLock
///    lexically nested inside another locked scope must take a mutex of
///    strictly lower, resolvable rank or use MutexLock2 (rule
///    `lock-nesting`).
///
/// See DESIGN.md "Lock hierarchy & deadlock detection" for the rank table
/// and the rules for choosing a rank for a new mutex.

// ---------------------------------------------------------------------------
// Annotation macros (Clang thread-safety attributes; no-ops elsewhere).
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define HQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HQ_THREAD_ANNOTATION_(x)
#endif

/// Declares a type to be a lockable capability ("mutex").
#define HQ_CAPABILITY(x) HQ_THREAD_ANNOTATION_(capability(x))
/// Declares an RAII type that acquires a capability for its scope.
#define HQ_SCOPED_CAPABILITY HQ_THREAD_ANNOTATION_(scoped_lockable)
/// Field is protected by the given mutex.
#define HQ_GUARDED_BY(x) HQ_THREAD_ANNOTATION_(guarded_by(x))
/// Pointee (not the pointer itself) is protected by the given mutex.
#define HQ_PT_GUARDED_BY(x) HQ_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function may only be called while holding the given mutex(es).
#define HQ_REQUIRES(...) HQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function acquires the mutex(es) and holds them on return.
#define HQ_ACQUIRE(...) HQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases the mutex(es).
#define HQ_RELEASE(...) HQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function acquires the mutex when it returns the given value.
#define HQ_TRY_ACQUIRE(...) HQ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called while holding the given mutex(es)
/// (deadlock guard for public entry points that take the lock themselves).
#define HQ_EXCLUDES(...) HQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Declares lock acquisition order between two mutexes. By project
/// convention these mirror the LockRank hierarchy: the mutex with the
/// higher rank is acquired before the mutex with the lower rank.
#define HQ_ACQUIRED_BEFORE(...) HQ_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define HQ_ACQUIRED_AFTER(...) HQ_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
/// Escape hatch; must carry a comment justifying why the analysis is wrong.
#define HQ_NO_THREAD_SAFETY_ANALYSIS HQ_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace hyperq::common {

class CondVar;
class MutexLock;
class MutexLock2;

// ---------------------------------------------------------------------------
// Lock ranks
// ---------------------------------------------------------------------------

/// The global lock hierarchy. Acquisition order is strictly DESCENDING:
/// while a thread holds a lock, it may only acquire locks of strictly lower
/// rank. Outermost / coarsest locks carry the highest rank, leaf locks the
/// lowest, so e.g. a server lifecycle scope may log (kLifecycle > kLogging)
/// but a queue internals scope may never re-enter the server.
///
/// In the `<` ordering used throughout docs and lint markers this reads
/// kLogging < kObs < kQueue < kPool < kStore < kCatalog < kJob < kCdw <
/// kServer < kLifecycle — a lock may nest *inside* any lock that compares
/// greater than it.
///
/// Same-rank acquisition is forbidden except through the MutexLock2
/// ordered-pair API. Rules for choosing a rank for a new mutex are in
/// DESIGN.md "Lock hierarchy & deadlock detection".
enum class LockRank : int {
  kLogging = 0,    ///< logging sink serialization; callable from anywhere
  kObs = 1,        ///< metrics registry, traces (leaf telemetry state)
  kQueue = 2,      ///< bounded/sequenced queues, transport pipes
  kPool = 3,       ///< thread pool, buffer pool, credit manager internals
  kStore = 4,      ///< cloud object store state
  kCatalog = 5,    ///< CDW catalog maps
  kJob = 6,        ///< per-job state (import/export jobs, cursors)
  kCdw = 7,        ///< CDW server statement execution state
  kServer = 8,     ///< node-wide session / job tables
  kLifecycle = 9,  ///< start/stop serialization (outermost scopes)
};

inline constexpr int kNumLockRanks = 10;

/// "kLogging" .. "kLifecycle"; "k?" for out-of-range values.
const char* LockRankName(LockRank rank);

/// Number of wait-time histogram buckets per rank: the finite bounds plus
/// the implicit +Inf bucket. The finite bounds deliberately mirror
/// obs::Histogram::BucketBounds() (a test asserts they stay in sync) so the
/// server can export per-rank wait histograms in the shared layout without
/// src/common depending on src/obs.
inline constexpr int kNumLockWaitBuckets = 26;

/// The kNumLockWaitBuckets - 1 finite upper bounds, ascending, in seconds.
const double* LockWaitBucketBounds();

// ---------------------------------------------------------------------------
// Lock-order graph registry (always on, production builds included)
// ---------------------------------------------------------------------------

/// One observed "acquired `acquired` while holding `holder`" rank pair.
struct LockOrderEdge {
  LockRank holder;
  LockRank acquired;
  uint64_t count = 0;
};

/// The per-instance refinement of a rank edge: the constructor-supplied
/// mutex names of the pair ("server_jobs" -> "bounded_queue"). Rank pairs
/// prove the hierarchy is respected; name pairs say which actual mutexes
/// travel each edge, which is what a static analyzer can diff its proven
/// call-site edges against. Unnamed mutexes fall back to their rank name.
struct LockOrderNameEdge {
  std::string holder;
  std::string acquired;
  uint64_t count = 0;
};

/// Point-in-time copy of the process-wide lock-order graph.
struct LockOrderSnapshot {
  /// Every observed rank-pair edge, ordered by (holder, acquired).
  std::vector<LockOrderEdge> edges;
  /// Every observed mutex-name pair edge, merged by name and ordered by
  /// (holder, acquired). Slots are bounded: when the fixed-size table
  /// overflows, `dropped_name_edges` counts the recordings that could not
  /// be attributed (the rank-pair edges above are never dropped).
  std::vector<LockOrderNameEdge> name_edges;
  uint64_t dropped_name_edges = 0;
  /// Blocked (contended) acquisitions per rank, indexed by LockRank value.
  uint64_t contention[kNumLockRanks] = {};
  /// Wait-time distribution of those contended acquisitions, per rank:
  /// how long the blocking `lock()` took, histogrammed over
  /// LockWaitBucketBounds() (uncontended fast-path acquisitions record
  /// nothing). Exported as `hyperq_lock_wait_seconds{rank=...}`.
  uint64_t wait_count[kNumLockRanks] = {};
  double wait_sum_seconds[kNumLockRanks] = {};
  uint64_t wait_buckets[kNumLockRanks][kNumLockWaitBuckets] = {};
  /// True when the edge set contains a directed cycle — i.e. two code paths
  /// disagree about acquisition order and a deadlock is possible.
  bool has_cycle = false;
  /// A witness cycle (first node repeated at the end) when has_cycle.
  std::vector<LockRank> cycle;
};

/// Process-wide registry of observed lock-order edges and per-rank
/// contention. Recording is a relaxed atomic increment and stays enabled in
/// production builds; the abort-on-inversion validator is separate (see
/// SetDeadlockDetectForTesting). Exported through src/obs/ as
/// `hyperq_lock_order_edges` / `hyperq_lock_contention_total{rank}` and the
/// HyperQServer::LockGraph() DOT/JSON dump.
class LockOrderGraph {
 public:
  static LockOrderGraph& Global();

  void RecordEdge(LockRank holder, LockRank acquired);
  /// Records the mutex-name pair travelling a rank edge. Lock-free: claims a
  /// slot in a fixed pointer-keyed table (mutex names are string literals,
  /// so pointer identity is cheap and Snapshot() merges by value). Null
  /// names are attributed to their rank's name.
  void RecordNameEdge(const char* holder, LockRank holder_rank, const char* acquired,
                      LockRank acquired_rank);
  void RecordContention(LockRank rank);
  /// Records how long a contended acquisition blocked in `lock()`.
  void RecordWait(LockRank rank, uint64_t wait_nanos);

  /// Consistent-enough copy plus cycle analysis over the copied edges.
  LockOrderSnapshot Snapshot() const;

  /// Zeroes every edge and contention cell (test isolation only).
  void ResetForTesting();

 private:
  LockOrderGraph() = default;

  /// One claimed (holder-name, acquired-name) cell. Claim order is holder
  /// then acquired; a slot whose second CAS loses stays half-claimed for
  /// that pair and the loser probes on, so every slot belongs to exactly
  /// one pointer pair for the life of the process.
  struct NameSlot {
    std::atomic<const char*> holder{nullptr};
    std::atomic<const char*> acquired{nullptr};
    std::atomic<uint64_t> count{0};
  };
  static constexpr int kNameSlots = 512;
  static constexpr int kNameProbeLimit = 64;

  std::atomic<uint64_t> edges_[kNumLockRanks][kNumLockRanks] = {};
  NameSlot name_slots_[kNameSlots];
  std::atomic<uint64_t> dropped_name_edges_{0};
  std::atomic<uint64_t> contention_[kNumLockRanks] = {};
  std::atomic<uint64_t> wait_count_[kNumLockRanks] = {};
  std::atomic<uint64_t> wait_nanos_[kNumLockRanks] = {};
  std::atomic<uint64_t> wait_buckets_[kNumLockRanks][kNumLockWaitBuckets] = {};
};

// ---------------------------------------------------------------------------
// Runtime deadlock validator controls
// ---------------------------------------------------------------------------

/// When enabled, every acquisition is checked against the per-thread stack
/// of held locks and a rank inversion aborts the process with both
/// acquisition sites. Defaults to the compile-time HQ_DEADLOCK_DETECT macro
/// (on in the asan/tsan/ubsan presets); tests flip it at runtime so death
/// tests bite in every preset.
void SetDeadlockDetectForTesting(bool enabled);
bool DeadlockDetectEnabled();

namespace lock_internal {
/// Validates (and on violation aborts) an acquisition about to happen, and
/// records the rank-pair edge in the global graph. `allow_equal_top` is the
/// MutexLock2 second-leg carve-out.
void OnLockAttempt(const void* mu, LockRank rank, const char* name, const char* file,
                   unsigned line, bool allow_equal_top);
/// Pushes the now-held lock onto the per-thread stack.
void OnLockAcquired(const void* mu, LockRank rank, const char* name, const char* file,
                    unsigned line);
/// Pops the lock from the per-thread stack (any position; scoped releases
/// are LIFO in practice).
void OnUnlock(const void* mu);
/// Bumps the per-rank contention counter (the acquisition had to block).
void OnContended(LockRank rank);
/// Records how long the blocked acquisition waited, once it acquired.
void OnWaited(LockRank rank, uint64_t wait_nanos);
/// Depth of the calling thread's held-lock stack (tests only).
int HeldDepthForTesting();
}  // namespace lock_internal

// ---------------------------------------------------------------------------
// Mutex / MutexLock / MutexLock2 / CondVar
// ---------------------------------------------------------------------------

/// Annotated exclusive mutex. Construction requires a LockRank (and accepts
/// an optional stable name for diagnostics / graph dumps). Prefer MutexLock
/// over manual Lock()/Unlock().
class HQ_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name = nullptr) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(std::source_location loc = std::source_location::current()) HQ_ACQUIRE() {
    LockImpl(loc, /*allow_equal_top=*/false);
  }
  void Unlock() HQ_RELEASE() {
    lock_internal::OnUnlock(this);
    mu_.unlock();
  }
  bool TryLock(std::source_location loc = std::source_location::current()) HQ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // Validate after the fact: a successful try-lock is still an acquisition
    // and must respect the hierarchy (it cannot deadlock by itself, but it
    // proves an ordering some blocking path may also take).
    lock_internal::OnLockAttempt(this, rank_, name_, loc.file_name(), loc.line(),
                                 /*allow_equal_top=*/false);
    lock_internal::OnLockAcquired(this, rank_, name_, loc.file_name(), loc.line());
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  friend class MutexLock;
  friend class MutexLock2;

  void LockImpl(const std::source_location& loc, bool allow_equal_top) {
    lock_internal::OnLockAttempt(this, rank_, name_, loc.file_name(), loc.line(),
                                 allow_equal_top);
    if (!mu_.try_lock()) {
      lock_internal::OnContended(rank_);
      const auto wait_start = std::chrono::steady_clock::now();
      mu_.lock();
      lock_internal::OnWaited(
          rank_, static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - wait_start)
                                           .count()));
    }
    lock_internal::OnLockAcquired(this, rank_, name_, loc.file_name(), loc.line());
  }

  const LockRank rank_;
  const char* const name_;
  std::mutex mu_;
};

/// RAII scoped lock over a Mutex; the codebase's only lock-taking idiom.
class HQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, std::source_location loc = std::source_location::current())
      HQ_ACQUIRE(mu)
      : mu_(mu) {
    mu_->LockImpl(loc, /*allow_equal_top=*/false);
  }
  ~MutexLock() HQ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* const mu_;
};

/// Ordered acquisition of two same-or-different-rank mutexes: the only
/// sanctioned way to hold two locks of equal rank. Acquires the higher rank
/// first; equal ranks are ordered by address, which is consistent across
/// every thread and therefore deadlock-free.
class HQ_SCOPED_CAPABILITY MutexLock2 {
 public:
  // The validator cannot see through the internal ordering swap, and under
  // clang the attribute (not the body) is the contract here.
  MutexLock2(Mutex* a, Mutex* b, std::source_location loc = std::source_location::current())
      HQ_ACQUIRE(a, b) HQ_NO_THREAD_SAFETY_ANALYSIS : first_(a), second_(b) {
    if (static_cast<int>(a->rank()) < static_cast<int>(b->rank()) ||
        (a->rank() == b->rank() && a > b)) {
      first_ = b;
      second_ = a;
    }
    first_->LockImpl(loc, /*allow_equal_top=*/false);
    second_->LockImpl(loc, /*allow_equal_top=*/true);
  }
  ~MutexLock2() HQ_RELEASE() HQ_NO_THREAD_SAFETY_ANALYSIS {
    second_->Unlock();
    first_->Unlock();
  }

  MutexLock2(const MutexLock2&) = delete;
  MutexLock2& operator=(const MutexLock2&) = delete;

 private:
  Mutex* first_;
  Mutex* second_;
};

/// Condition variable bound to MutexLock. Callers loop over their predicate
/// in the locked scope:
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock, blocks, and reacquires before returning.
  /// The lock stays on the waiter's held-lock stack for the duration (the
  /// thread is blocked, so the conservative view is the correct one).
  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> ul(lock.mu_->mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();
  }

  /// Waits until notified or `deadline`; returns true on timeout.
  template <typename Clock, typename Duration>
  bool WaitUntil(MutexLock& lock, const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> ul(lock.mu_->mu_, std::adopt_lock);
    bool timed_out = cv_.wait_until(ul, deadline) == std::cv_status::timeout;
    ul.release();
    return timed_out;
  }

  /// Waits until notified or `timeout` elapsed; returns true on timeout.
  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lock, const std::chrono::duration<Rep, Period>& timeout) {
    std::unique_lock<std::mutex> ul(lock.mu_->mu_, std::adopt_lock);
    bool timed_out = cv_.wait_for(ul, timeout) == std::cv_status::timeout;
    ul.release();
    return timed_out;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hyperq::common
