#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoints.h"
#include "workload/university.h"

namespace bryql {
namespace {

using namespace std::chrono_literals;

UniversityConfig SmallConfig(uint64_t seed) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = seed;
  return config;
}

const char kOpenQuery[] =
    "{ x | student(x) & ~forall y: (lecture(y, db) -> attends(x, y)) }";
const char kClosedQuery[] =
    "exists x: student(x) & exists y: (lecture(y, db) & attends(x, y))";

/// A witness-free closed query: the innermost contradiction forces the
/// nested-loop strategy through all |student|^5 candidate bindings. The
/// queue tests run it with a CancellationToken so a "slot holder" blocks
/// deterministically until the test releases it — no sleep calibration.
const char kHoldQuery[] =
    "exists v: exists w: exists x: exists y: exists z: (student(v) & "
    "student(w) & student(x) & student(y) & student(z) & ~student(v))";

void ExpectSameAnswer(const Answer& a, const Answer& b) {
  ASSERT_EQ(a.closed, b.closed);
  if (a.closed) {
    EXPECT_EQ(a.truth, b.truth);
  } else {
    EXPECT_EQ(a.relation, b.relation);
  }
}

/// Polls `predicate` for up to two seconds — the tests synchronize on
/// service counters instead of fixed-length sleeps.
template <typename Fn>
bool WaitFor(const Fn& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return predicate();
}

TEST(QueryServiceTest, FaultFreePathMatchesDirectRun) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  QueryService service(&qp);

  auto direct_open = qp.Run(kOpenQuery);
  auto direct_closed = qp.Run(kClosedQuery);
  ASSERT_TRUE(direct_open.ok());
  ASSERT_TRUE(direct_closed.ok());

  auto via_service_open = service.Run(kOpenQuery);
  auto via_service_closed = service.Run(kClosedQuery);
  ASSERT_TRUE(via_service_open.ok()) << via_service_open.status();
  ASSERT_TRUE(via_service_closed.ok()) << via_service_closed.status();
  ExpectSameAnswer(direct_open->answer, via_service_open->execution.answer);
  ExpectSameAnswer(direct_closed->answer,
                   via_service_closed->execution.answer);
  EXPECT_EQ(via_service_open->attempts, 1u);
  EXPECT_EQ(via_service_open->degradation_level, 0);
  // The default limiter admits one query per core, at least two.
  EXPECT_EQ(service.max_concurrency(),
            std::max<size_t>(2, std::thread::hardware_concurrency()));

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(QueryServiceTest, SemanticErrorsPassThroughWithoutRetries) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  QueryService service(&qp);

  auto bad_parse = service.Run("{ x | ");
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_EQ(bad_parse.status().code(), StatusCode::kInvalidArgument);
  auto bad_name = service.Run("exists x: no_such_relation(x)");
  ASSERT_FALSE(bad_name.ok());
  EXPECT_NE(bad_name.status().code(), StatusCode::kTransient);
  EXPECT_EQ(service.stats().retries, 0u)
      << "semantic errors must not burn retry budget";
}

TEST(QueryServiceTest, ConcurrencyLimiterBoundsParallelExecution) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.max_concurrency = 2;
  options.max_queue_depth = 64;
  QueryService service(&qp, options);

  constexpr size_t kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<size_t> failures{0};
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      for (int j = 0; j < 4; ++j) {
        auto reply = service.Run(kOpenQuery);
        if (!reply.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kClients * 4);
  EXPECT_LE(stats.peak_running, 2u)
      << "more queries ran concurrently than the limiter allows";
}

TEST(QueryServiceTest, FullQueueRejectsWithRetryAfterHint) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.max_queue_depth = 1;
  QueryService service(&qp, options);

  CancellationToken token;
  QueryOptions held;
  held.cancellation = &token;

  // Thread A blocks in the single execution slot until cancelled; thread
  // B occupies the single queue seat. The third caller must be shed.
  std::thread a([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held);
  });
  const bool holder_running =
      WaitFor([&] { return service.stats().admitted >= 1; });
  std::thread b([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held);
  });
  const bool seat_taken = holder_running &&
      WaitFor([&] { return service.stats().peak_waiting >= 1; });

  auto shed = service.Run(kClosedQuery);
  token.Cancel();
  a.join();
  b.join();

  ASSERT_TRUE(holder_running);
  ASSERT_TRUE(seat_taken);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(RetryAfterMsHint(shed.status()), 0u) << shed.status();
  EXPECT_GE(service.stats().rejected_queue_full, 1u);
}

TEST(QueryServiceTest, DeadlineAwareRejectionShedsDoomedRequests) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.max_queue_depth = 16;
  QueryService service(&qp, options);

  CancellationToken token;
  QueryOptions held;
  held.cancellation = &token;

  std::thread a([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held);
  });
  const bool holder_running =
      WaitFor([&] { return service.stats().admitted >= 1; });
  std::thread b([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held);
  });
  const bool seat_taken = holder_running &&
      WaitFor([&] { return service.stats().peak_waiting >= 1; });

  // A queue wait is certainly ahead of this request, so a one-nanosecond
  // deadline cannot be met: the service must reject instantly instead of
  // letting the caller wait out a doomed timeout.
  QueryOptions doomed;
  doomed.deadline = std::chrono::nanoseconds(1);
  auto shed = service.Run(kClosedQuery, Strategy::kBry, doomed);
  token.Cancel();
  a.join();
  b.join();

  ASSERT_TRUE(holder_running);
  ASSERT_TRUE(seat_taken);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status();
  EXPECT_GT(RetryAfterMsHint(shed.status()), 0u);
  EXPECT_GE(service.stats().rejected_deadline, 1u);
}

TEST(QueryServiceTest, FastQueriesDoNotPoisonTheLatencyEstimator) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.max_queue_depth = 1;
  QueryService service(&qp, options);

  // Microsecond-scale queries pull the latency EWMA *down* from its
  // deliberately pessimistic 0.5ms initial estimate. A signed-arithmetic
  // bug here once wrapped the average to ~2^61 ns on the very first fast
  // sample, after which every deadlined request was shed regardless of
  // load and retry-after hints spanned decades.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.Run(kClosedQuery).ok());
  }

  CancellationToken token;
  QueryOptions held;
  held.cancellation = &token;
  std::thread holder([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held);
  });
  const bool holder_running =
      WaitFor([&] { return service.stats().admitted >= 9; });

  // The slot is busy but the queue is empty: with a healthy estimator a
  // ten-second deadline dwarfs the expected wait, so this request must
  // queue and eventually answer — not be shed as doomed.
  QueryOptions generous;
  generous.deadline = 10s;
  std::thread queued([&] {
    auto reply = service.Run(kClosedQuery, Strategy::kBry, generous);
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  const bool seat_taken = holder_running &&
      WaitFor([&] { return service.stats().peak_waiting >= 1; });

  // And a caller shed off the now-full queue must get a hint measured in
  // milliseconds, not millennia.
  auto shed = service.Run(kClosedQuery);
  token.Cancel();
  holder.join();
  queued.join();

  ASSERT_TRUE(holder_running);
  ASSERT_TRUE(seat_taken);
  ASSERT_FALSE(shed.ok());
  ASSERT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  const uint64_t hint_ms = RetryAfterMsHint(shed.status());
  EXPECT_GE(hint_ms, 1u);
  EXPECT_LT(hint_ms, 600000u) << shed.status();
  EXPECT_EQ(service.stats().rejected_deadline, 0u)
      << "a generously deadlined request was shed from an empty queue";
}

TEST(QueryServiceTest, PriorityOrdersTheAdmissionQueue) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.max_queue_depth = 8;
  QueryService service(&qp, options);

  CancellationToken token;
  QueryOptions held;
  held.cancellation = &token;

  std::thread holder([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held);
  });
  const bool holder_running =
      WaitFor([&] { return service.stats().admitted >= 1; });

  // Enqueue a batch request first, then an interactive one. When the
  // holder releases the slot, the interactive request must be seated
  // first despite arriving second. Both queued requests are hold queries
  // with their own tokens, so which one got the slot is observable
  // directly: cancelling only the interactive token releases exactly the
  // request that was seated, while a queued request ignores it (the
  // admission queue does not poll cancellation).
  CancellationToken batch_token, interactive_token;
  QueryOptions held_batch, held_interactive;
  held_batch.cancellation = &batch_token;
  held_interactive.cancellation = &interactive_token;
  std::atomic<int> order{0};
  std::atomic<int> batch_done{-1};
  std::atomic<int> interactive_done{-1};
  std::thread batch([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held_batch,
                      Priority::kBatch);
    batch_done.store(order.fetch_add(1));
  });
  const bool batch_queued = holder_running &&
      WaitFor([&] { return service.stats().peak_waiting >= 1; });
  std::thread interactive([&] {
    (void)service.Run(kHoldQuery, Strategy::kNestedLoop, held_interactive,
                      Priority::kInteractive);
    interactive_done.store(order.fetch_add(1));
  });
  const bool both_queued = batch_queued &&
      WaitFor([&] { return service.stats().peak_waiting >= 2; });

  token.Cancel();
  holder.join();
  // One of the two queued requests is now seated (and blocked in the
  // engine on its own token); the other is still queued. If priority
  // ordering works it is the interactive one that holds the slot, so
  // cancelling its token must complete it while the batch request has
  // not finished.
  const bool seated_second = WaitFor([&] {
    return service.stats().admitted >= 2;
  });
  interactive_token.Cancel();
  const bool interactive_first = WaitFor([&] {
    return interactive_done.load() != -1;
  });
  const int batch_stamp_then = batch_done.load();
  batch_token.Cancel();
  batch.join();
  interactive.join();

  ASSERT_TRUE(holder_running);
  ASSERT_TRUE(batch_queued);
  ASSERT_TRUE(both_queued);
  ASSERT_TRUE(seated_second);
  EXPECT_TRUE(interactive_first)
      << "the interactive request must be seated before the batch one";
  EXPECT_EQ(batch_stamp_then, -1)
      << "the batch request finished while the interactive one was queued";
  EXPECT_LT(interactive_done.load(), batch_done.load());
}

class ServiceFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::enabled()) {
      GTEST_SKIP() << "built without BRYQL_FAILPOINTS; nothing to inject";
    }
    failpoints::DisarmAll();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(ServiceFailpointTest, RetriesRideOutAProbabilisticFault) {
  // A flaky scan (10% per open, seed-fixed schedule) against a service
  // with a deep retry budget: every reply must be the fault-free answer
  // or a clean kTransient — the chaos invariant, in miniature and
  // deterministic because a single thread drives one hit sequence.
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  auto oracle = qp.Run(kClosedQuery);
  ASSERT_TRUE(oracle.ok());

  ServiceOptions options;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff = 100us;
  QueryService service(&qp, options);
  failpoints::ArmProbabilistic("exec.scan.open",
                               Status::Transient("flaky scan"), 0.1, 1234);
  size_t succeeded = 0;
  for (int i = 0; i < 20; ++i) {
    auto reply = service.Run(kClosedQuery);
    if (reply.ok()) {
      ++succeeded;
      ExpectSameAnswer(oracle->answer, reply->execution.answer);
    } else {
      EXPECT_EQ(reply.status().code(), StatusCode::kTransient)
          << reply.status();
    }
  }
  EXPECT_GT(succeeded, 0u);
  // At a 10% per-hit rate across 20 runs some attempt certainly failed;
  // the retry machinery must actually have engaged.
  ServiceStats stats = service.stats();
  EXPECT_GT(stats.transient_failures, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST_F(ServiceFailpointTest, PersistentTransientFaultExhaustsAttempts) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 100us;
  options.enable_degradation = false;
  QueryService service(&qp, options);

  failpoints::Arm("exec.scan.open", Status::Transient("always down"));
  auto reply = service.Run(kClosedQuery);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kTransient);
  EXPECT_NE(reply.status().message().find("attempts exhausted"),
            std::string::npos)
      << reply.status();
  EXPECT_NE(reply.status().message().find("always down"), std::string::npos)
      << "the last underlying error must be carried in the message";
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.transient_failures, 3u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(ServiceFailpointTest, PersistentThrowExhaustsTheLadderAsTransient) {
  // exec.physical.throw fires on every physical-operator dispatch, and
  // every rung runs the same operators, so no rung escapes it. The
  // ladder steps from the run as requested to a plan-cache bypass and
  // then stays on that last rung: attempts run at rungs 0, 1, 1, 1, and
  // the request ends as kTransient once max_attempts is spent.
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);

  failpoints::Arm("exec.physical.throw", Status::Internal("operator bomb"));
  ServiceOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = 100us;
  QueryService service(&qp, options);
  auto reply = service.Run(kOpenQuery);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kTransient);
  EXPECT_NE(reply.status().message().find("attempts exhausted"),
            std::string::npos)
      << reply.status();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.transient_failures, 4u);
  EXPECT_EQ(stats.degraded_cache_bypass, 3u);  // rungs 1, 1, 1
  EXPECT_EQ(stats.degraded_serial, 0u);        // inert: no serial rung
  EXPECT_EQ(stats.overload_degraded, 0u);      // inert
  EXPECT_EQ(stats.failed, 1u);

  // Without the ladder the same fault is terminal too, at rung 0 only.
  failpoints::DisarmAll();
  failpoints::Arm("exec.physical.throw", Status::Internal("operator bomb"));
  ServiceOptions rigid = options;
  rigid.enable_degradation = false;
  QueryService undegraded(&qp, rigid);
  auto stuck = undegraded.Run(kOpenQuery);
  ASSERT_FALSE(stuck.ok());
  EXPECT_EQ(stuck.status().code(), StatusCode::kTransient);
  EXPECT_EQ(undegraded.stats().degraded_cache_bypass, 0u);
}

TEST_F(ServiceFailpointTest, PlainInternalFailureIsNeitherRetriedNorRelabelled) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = 100us;
  QueryService service(&qp, options);

  // A deterministic invariant breach — plain kInternal, not the tagged
  // barrier class — fails the same way on every attempt. The service
  // must return it verbatim after one try: retrying burns budget for
  // nothing, and a kTransient relabel ("try again later") would invite
  // clients to retry a permanent bug forever.
  failpoints::Arm("exec.scan.open", Status::Internal("broken invariant"));
  auto reply = service.Run(kClosedQuery);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(reply.status().IsContainedException());
  EXPECT_EQ(reply.status().message(), "broken invariant")
      << "a deterministic kInternal must pass through unwrapped";
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.transient_failures, 0u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(ServiceFailpointTest, DeadlineBoundsRetriesAndBackoff) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ServiceOptions options;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff = 20ms;
  options.retry.max_backoff = 200ms;
  QueryService service(&qp, options);

  // Every ladder rung opens scans, so every rung fails: the request can
  // only end by deadline or attempt exhaustion,
  // and the deadline must win long before ten 20ms+ backoffs elapse.
  failpoints::Arm("exec.scan.open", Status::Transient("always down"));
  QueryOptions bounded;
  bounded.deadline = 60ms;
  const auto start = std::chrono::steady_clock::now();
  auto reply = service.Run(kClosedQuery, Strategy::kBry, bounded);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsTransient() ||
              reply.status().code() == StatusCode::kDeadlineExceeded)
      << reply.status();
  EXPECT_LT(elapsed, 2s) << "the deadline must bound the retry loop";
}

}  // namespace
}  // namespace bryql
