#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

/// \file retry.h
/// Resilience primitives for the load path: RetryPolicy (capped exponential
/// backoff with decorrelated jitter, retryable-vs-fatal Status
/// classification, per-attempt budget and overall deadline) and
/// CircuitBreaker (closed → open → half-open, per endpoint). Policy lives
/// here as configuration — call sites say *what* to retry, not *how* (see
/// hqcheck rule `unbounded-retry`, which flags hand-rolled retry loops).
///
/// Layering: src/common cannot depend on src/obs (obs already depends on
/// common), so instrumentation is pull-based — RetryStats::Global() and the
/// breaker registry accumulate counters that HyperQServer::MetricsSnapshot()
/// polls into `hyperq_retry_attempts_total{point=...}` /
/// `hyperq_retry_exhausted_total{point=...}` / `hyperq_circuit_state{...}`
/// gauges, the same way the lock-contention gauges are exported.
///
/// See DESIGN.md "Fault injection & resilient load path".

namespace hyperq::common {

/// The transient/fatal split used across the load path. Only kIOError — the
/// code every simulated substrate failure (object store, network, CDW
/// endpoint, injected fault) surfaces — is worth retrying. Everything else
/// is deterministic (parse, type, constraint, protocol errors) or must
/// propagate by contract (kResourceExhausted: the memory-budget e2e tests
/// depend on budget exhaustion failing the job, not being retried into a
/// livelock).
bool IsRetryableStatus(const Status& s);

class CircuitBreaker;

/// Tuning knobs for RetryPolicy. Defaults suit the in-process simulated
/// substrate (microsecond-scale operations); real deployments would scale
/// the backoff constants up by ~1000x.
struct RetryOptions {
  /// Total tries including the first; <= 1 disables retrying.
  int max_attempts = 4;
  /// First backoff sleep; subsequent sleeps use decorrelated jitter
  /// (AWS-architecture-blog style): sleep_k = min(cap, U(base, 3 * sleep_{k-1})).
  uint64_t initial_backoff_micros = 200;
  /// Cap on any single backoff sleep.
  uint64_t max_backoff_micros = 50 * 1000;
  /// Overall wall-clock budget across all attempts and sleeps; 0 = none.
  /// Checked before each retry — a deadline hit surfaces the last error.
  uint64_t overall_deadline_micros = 0;
  /// Seed for the deterministic jitter stream (hashed with the point name
  /// and attempt number, so two points never share a sequence).
  uint64_t jitter_seed = 0;
  /// Tests set false to make Run() compute-but-skip the backoff sleeps.
  bool sleep = true;
  /// Optional breaker consulted before every attempt; attempt outcomes are
  /// reported back to it. Not owned.
  CircuitBreaker* breaker = nullptr;
  /// Observability hook invoked before each backoff sleep (attempt is the
  /// 1-based attempt that just failed). Used by ImportJob to emit
  /// Phase::kRetryBackoff trace spans. Must not block.
  std::function<void(std::string_view point, int attempt, uint64_t sleep_micros)> on_backoff;
};

/// Context handed to each attempt.
struct RetryAttempt {
  int attempt = 1;  ///< 1-based
  int max_attempts = 1;
  bool last() const { return attempt >= max_attempts; }
};

/// Bounded retry with capped exponential backoff and decorrelated jitter.
/// Stateless and cheap to construct per call site; all state lives in the
/// options and the global RetryStats.
class RetryPolicy {
 public:
  RetryPolicy() = default;
  explicit RetryPolicy(RetryOptions options) : options_(std::move(options)) {}

  const RetryOptions& options() const { return options_; }

  /// Runs `fn` until it returns OK, a non-retryable Status, attempts are
  /// exhausted, or the overall deadline passes. `point` names the call site
  /// in stats, jitter streams and injected-fault messages.
  Status Run(std::string_view point, const std::function<Status(const RetryAttempt&)>& fn) const;

  /// Result-returning variant: retries while `fn` fails retryably, returns
  /// the first success or the terminal error.
  template <typename T>
  Result<T> RunResult(std::string_view point,
                      const std::function<Result<T>(const RetryAttempt&)>& fn) const {
    std::optional<Result<T>> last;
    Status s = Run(point, [&](const RetryAttempt& attempt) {
      last.emplace(fn(attempt));
      return last->ok() ? Status::OK() : last->status();
    });
    if (!s.ok()) return s;
    return std::move(*last);
  }

  /// The deterministic backoff sleep chosen after `attempt` (1-based)
  /// failed, given the previous sleep. Exposed for tests: bounds and
  /// determinism are part of the contract.
  uint64_t BackoffMicros(std::string_view point, int attempt, uint64_t prev_micros) const;

 private:
  RetryOptions options_;
};

// ---------------------------------------------------------------------------
// Pull-based instrumentation (see layering note above)
// ---------------------------------------------------------------------------

/// Process-wide retry/exhaustion accounting, keyed by fault-point name.
/// First attempts are deliberately NOT counted: with injection off a healthy
/// run records exactly zero retries (chaos differential asserts this).
class RetryStats {
 public:
  static RetryStats& Global();

  void RecordRetry(std::string_view point) HQ_EXCLUDES(mu_);
  void RecordExhausted(std::string_view point) HQ_EXCLUDES(mu_);

  struct Snapshot {
    /// attempt-2+ executions per point.
    std::map<std::string, uint64_t> retries;
    /// Run() invocations that gave up with attempts/deadline exhausted.
    std::map<std::string, uint64_t> exhausted;
  };
  Snapshot Snap() const HQ_EXCLUDES(mu_);
  uint64_t total_retries() const HQ_EXCLUDES(mu_);

  void ResetForTesting() HQ_EXCLUDES(mu_);

 private:
  RetryStats() = default;
  mutable Mutex mu_{LockRank::kObs, "retry_stats"};
  std::map<std::string, uint64_t> retries_ HQ_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> exhausted_ HQ_GUARDED_BY(mu_);
};

/// Per-endpoint circuit breaker: after `failure_threshold` *consecutive*
/// transient failures the circuit opens and calls fail fast (with a
/// retryable kIOError, so an enclosing RetryPolicy's backoff naturally
/// spans the cooldown); after `cooldown_micros` it half-opens and admits
/// probes; `half_open_successes` consecutive probe successes close it again,
/// one probe failure re-opens it. Lock-free (atomics only) so it can sit on
/// any hot path without a rank.
struct CircuitBreakerOptions {
  int failure_threshold = 8;
  int half_open_successes = 2;
  uint64_t cooldown_micros = 5 * 1000;
};

class CircuitBreaker {
 public:
  enum class State : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(std::string endpoint, CircuitBreakerOptions options = {})
      : endpoint_(std::move(endpoint)), options_(options) {}
  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// OK when the call may proceed (closed, or half-open probe); a retryable
  /// kIOError when the circuit is open.
  Status Allow();

  /// Reports the outcome of an admitted call. Only transient (retryable)
  /// failures count toward tripping; deterministic failures (parse errors,
  /// constraint violations) say nothing about endpoint health.
  void RecordSuccess();
  void RecordFailure(const Status& s);

  State state() const { return static_cast<State>(state_.load(std::memory_order_relaxed)); }
  const std::string& endpoint() const { return endpoint_; }

  void ResetForTesting();

 private:
  void Trip(uint64_t now_nanos);

  const std::string endpoint_;
  const CircuitBreakerOptions options_;
  std::atomic<int> state_{static_cast<int>(State::kClosed)};
  std::atomic<int> consecutive_failures_{0};
  std::atomic<int> half_open_successes_{0};
  std::atomic<uint64_t> open_until_nanos_{0};
};

/// "closed" | "open" | "half-open".
const char* CircuitStateName(CircuitBreaker::State state);

/// Process-wide breaker registry, one breaker per endpoint name, created on
/// first use. Stable pointers (never deleted).
CircuitBreaker* BreakerFor(std::string_view endpoint);
/// (endpoint, state) for every registered breaker, name-ordered.
std::vector<std::pair<std::string, CircuitBreaker::State>> BreakerStates();
/// Re-closes every registered breaker (test isolation).
void ResetBreakersForTesting();

}  // namespace hyperq::common
