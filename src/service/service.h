#ifndef BRYQL_SERVICE_SERVICE_H_
#define BRYQL_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "common/governor.h"
#include "common/result.h"
#include "common/status.h"
#include "core/query_processor.h"

namespace bryql {

/// Admission priority of a request. Lower value = more urgent; the
/// admission queue always seats the most urgent waiting caller first
/// (FIFO within a priority). Under sustained overload, batch work is the
/// first to be shed — that is the point of the classes.
enum class Priority {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};
constexpr size_t kPriorityLevels = 3;

const char* PriorityName(Priority priority);

/// Automatic-retry knobs: exponential backoff with deterministic,
/// seed-derived jitter. Retries apply to the *transient* error class —
/// Status::IsTransient() and kInternal faults tagged by an exception
/// barrier (Status::IsContainedException()) — never to resource verdicts
/// (a budget trip is a property of the query, not of luck), to semantic
/// errors, or to plain kInternal invariant breaches (a deterministic bug
/// retries the same way every time).
struct RetryPolicy {
  /// Total tries including the first. 1 = no retries.
  size_t max_attempts = 4;
  std::chrono::nanoseconds initial_backoff{std::chrono::milliseconds(1)};
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff{std::chrono::milliseconds(50)};
  /// Fraction of each backoff randomized away (0 = none, 1 = full
  /// jitter). The random stream is a pure function of ServiceOptions::seed
  /// and the request ticket, so a fault schedule replays identically.
  double jitter = 0.5;
};

/// Configuration of a QueryService.
struct ServiceOptions {
  /// Queries evaluated concurrently, each serially on its caller's
  /// thread. 0 = max(2, std::thread::hardware_concurrency()).
  size_t max_concurrency = 0;
  /// Callers allowed to wait for a slot (all priorities together); the
  /// next caller beyond this is rejected immediately with
  /// kResourceExhausted and a retry-after hint.
  size_t max_queue_depth = 64;
  RetryPolicy retry;
  /// Master switch for the degradation ladder (below). Off = every
  /// attempt runs exactly as requested.
  bool enable_degradation = true;
  /// Seed of the jitter stream (and nothing else — fault schedules are
  /// seeded at the failpoint layer).
  uint64_t seed = 0x5eed5eed5eed5eedull;
};

/// One query as submitted by a client. The deadline inside `options` is
/// measured from Submit() entry and covers queueing, every attempt and
/// every backoff sleep — a caller that asks for 50ms gets an answer or a
/// clean error within ~50ms regardless of what the fault schedule does.
struct ServiceRequest {
  std::string text;
  Strategy strategy = Strategy::kBry;
  QueryOptions options;
  Priority priority = Priority::kNormal;
};

/// A successful reply: the execution plus how hard the service had to
/// work for it.
struct ServiceReply {
  Execution execution;
  /// Attempts consumed (1 = first try succeeded).
  size_t attempts = 1;
  /// Degradation-ladder rung of the successful attempt: 0 = as
  /// requested, 1 = plan-cache bypass (the last rung).
  int degradation_level = 0;
};

/// Service-level observability counters. Snapshot via
/// QueryService::stats(); individual counters are exact, the snapshot as
/// a whole is not atomic.
struct ServiceStats {
  size_t submitted = 0;
  size_t admitted = 0;
  size_t completed = 0;
  size_t failed = 0;
  /// Rejections: admission queue at capacity.
  size_t rejected_queue_full = 0;
  /// Rejections: estimated queue wait exceeded the remaining deadline.
  size_t rejected_deadline = 0;
  /// Admitted but the deadline expired while still queued.
  size_t queue_timeouts = 0;
  /// Retry attempts performed (not counting first tries).
  size_t retries = 0;
  /// Attempts that failed with the transient class (kTransient, or
  /// barrier-contained kInternal — Status::IsContainedException()).
  size_t transient_failures = 0;
  /// Attempts run at the plan-cache-bypass rung.
  size_t degraded_cache_bypass = 0;
  /// Inert, always 0 (there is no serial rung); kept for existing readers.
  size_t degraded_serial = 0;
  /// Inert, always 0 (no overload degradation); kept for existing readers.
  size_t overload_degraded = 0;
  /// High-water marks of concurrent execution and queue depth.
  size_t peak_running = 0;
  size_t peak_waiting = 0;

  std::string ToString() const;
};

/// A fault-tolerant, concurrency-controlled front door to QueryProcessor,
/// designed for many client threads sharing one processor:
///
///   * admission control — a bounded queue with per-query priorities and
///     deadline-aware rejection: when the queue is full, or the estimated
///     queue wait already exceeds the request's remaining deadline, the
///     caller gets an immediate kResourceExhausted carrying a
///     "retry-after-ms=N" hint (RetryAfterMsHint) instead of a doomed
///     wait;
///   * a concurrency limiter sized to the machine's cores, so a burst of
///     callers queues instead of oversubscribing it;
///   * automatic retry with exponential backoff and seeded jitter for the
///     transient error class (kTransient injections, exception-barrier
///     kInternal), honouring the request deadline across attempts;
///   * a graceful-degradation ladder: a retry steps down from the run as
///     requested to a plan-cache bypass, which rebuilds a possibly
///     poisoned cached plan from the text. Both rungs run the same
///     serial physical operators;
///   * an exception backstop: any throw escaping the evaluation pipeline
///     (the engine's own barrier already contains operator throws)
///     becomes a well-formed kInternal, never a dead process.
///
/// Execution happens on the *calling* thread after admission — the
/// service adds no thread hops on the fault-free path (bench_service
/// holds it under 3% overhead).
///
/// Thread-safe; `processor` must be shared-safe too (QueryProcessor is).
class QueryService {
 public:
  /// `processor` must outlive the service.
  explicit QueryService(const QueryProcessor* processor,
                        ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits, evaluates (with retries/degradation as needed) and replies.
  /// Non-OK outcomes are:
  ///   * kResourceExhausted — shed at admission (retry-after hint) or a
  ///     governor budget verdict from the query itself;
  ///   * kDeadlineExceeded / kCancelled — the caller's own limits;
  ///   * kTransient — every attempt failed with a transient fault; the
  ///     last underlying error is in the message;
  ///   * any other code — the query or the engine is genuinely wrong
  ///     (parse/semantic errors and untagged kInternal invariant breaches
  ///     pass through untouched: retrying or relabelling a deterministic
  ///     failure would only invite client retry loops on a permanent bug).
  Result<ServiceReply> Submit(const ServiceRequest& request);

  /// Convenience wrapper building the request inline.
  Result<ServiceReply> Run(const std::string& text,
                           Strategy strategy = Strategy::kBry,
                           const QueryOptions& options = {},
                           Priority priority = Priority::kNormal);

  ServiceStats stats() const;
  size_t max_concurrency() const { return max_concurrency_; }

 private:
  struct AdmitResult {
    Status status;
    /// True when the caller holds an execution slot and must Release().
    bool admitted = false;
  };

  AdmitResult Admit(Priority priority, uint64_t ticket,
                    bool has_deadline,
                    std::chrono::steady_clock::time_point deadline);
  void Release();

  /// Estimated ms until a freshly rejected caller would plausibly get a
  /// slot — the retry-after hint.
  uint64_t RetryAfterMsLocked() const;

  /// One evaluation attempt at a degradation rung, with the exception
  /// backstop.
  Result<Execution> RunAttempt(const ServiceRequest& request,
                               const QueryOptions& attempt_options) const;

  void RecordLatency(std::chrono::nanoseconds elapsed);
  std::chrono::nanoseconds EstimatedQueryLatency() const {
    return std::chrono::nanoseconds(
        avg_latency_ns_.load(std::memory_order_relaxed));
  }

  const QueryProcessor* processor_;
  ServiceOptions options_;
  size_t max_concurrency_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  size_t running_ = 0;
  size_t waiting_total_ = 0;
  /// FIFO ticket queues, one per priority; the head of the most urgent
  /// non-empty queue is seated next.
  std::deque<uint64_t> queue_[kPriorityLevels];
  std::atomic<uint64_t> next_ticket_{0};

  /// EWMA of observed attempt latency (ns), the queue-wait estimator.
  std::atomic<uint64_t> avg_latency_ns_;

  /// Counters (relaxed atomics; peaks are maintained under mutex_).
  mutable std::atomic<size_t> submitted_{0}, admitted_{0}, completed_{0},
      failed_{0}, rejected_queue_full_{0}, rejected_deadline_{0},
      queue_timeouts_{0}, retries_{0}, transient_failures_{0},
      degraded_cache_bypass_{0};
  size_t peak_running_ = 0;
  size_t peak_waiting_ = 0;
};

/// Extracts the "retry-after-ms=N" hint from a rejection Status message;
/// 0 when absent. Clients use it to pace their retry loops.
uint64_t RetryAfterMsHint(const Status& status);

}  // namespace bryql

#endif  // BRYQL_SERVICE_SERVICE_H_
