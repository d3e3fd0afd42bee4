/// Seeded chaos harness for the fault-tolerant query service.
///
/// Many client threads drive a shared QueryService while probabilistic
/// failpoints inject transient faults and operator exceptions on a
/// seed-deterministic schedule. The invariant is differential: every
/// reply is either the fault-free oracle answer or a clean error of the
/// transient class — never a wrong answer, a crash, or a hang. A machine
/// that survives this under ASan/TSan has earned its robustness claims.
///
/// Per-site fire schedules are pure functions of (seed, site, hit index),
/// so a failing seed replays: BRYQL_CHAOS_SEED=<n> ctest -R chaos. The CI
/// chaos job sweeps a fixed seed list the same way.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoints.h"
#include "service/service.h"
#include "workload/university.h"

namespace bryql {
namespace {

using namespace std::chrono_literals;

struct ChaosQuery {
  const char* text;
  Strategy strategy;
};

/// A mixed workload: open and closed queries, quantifiers, negation and
/// disjunction, across the two main strategies — enough plan diversity
/// that the armed sites fire at different pipeline depths.
const ChaosQuery kWorkload[] = {
    {"{ x | student(x) & forall y: (lecture(y, db) -> attends(x, y)) }",
     Strategy::kBry},
    {"{ x | student(x) & ~forall y: (lecture(y, db) -> attends(x, y)) }",
     Strategy::kBry},
    {"exists x: student(x) & exists y: (lecture(y, db) & attends(x, y))",
     Strategy::kBry},
    {"{ x | professor(x) | student(x) & makes(x, phd) }", Strategy::kBry},
    {"{ x | student(x) & (speaks(x, french) | speaks(x, german)) }",
     Strategy::kClassical},
    {"exists x: professor(x) & forall y: (cs-lecture(y) -> ~attends(x, y))",
     Strategy::kBry},
};
constexpr size_t kWorkloadSize = sizeof(kWorkload) / sizeof(kWorkload[0]);

constexpr size_t kClientThreads = 8;
constexpr size_t kRequestsPerThread = 25;

std::vector<uint64_t> ChaosSeeds() {
  // One seed per run keeps the test fast; CI sweeps a list by invoking
  // the binary repeatedly with BRYQL_CHAOS_SEED set.
  if (const char* env = std::getenv("BRYQL_CHAOS_SEED")) {
    if (*env != '\0') return {std::strtoull(env, nullptr, 10)};
  }
  return {42, 1989};
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool AnswersEqual(const Answer& a, const Answer& b) {
  if (a.closed != b.closed) return false;
  if (a.closed) return a.truth == b.truth;
  return a.relation == b.relation;
}

class ChaosServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::enabled()) {
      GTEST_SKIP() << "built without BRYQL_FAILPOINTS; chaos needs injection";
    }
    failpoints::DisarmAll();
    failpoints::ResetStats();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(ChaosServiceTest, NoWrongAnswersUnderRandomizedFaults) {
  UniversityConfig config;
  config.students = 60;
  config.professors = 12;
  config.lectures = 24;
  config.seed = 7;
  Database db = MakeUniversity(config);
  QueryProcessor qp(&db);

  // Fault-free oracles, computed before anything is armed.
  Answer oracle[kWorkloadSize];
  for (size_t q = 0; q < kWorkloadSize; ++q) {
    auto r = qp.Run(kWorkload[q].text, kWorkload[q].strategy);
    ASSERT_TRUE(r.ok()) << kWorkload[q].text << ": " << r.status();
    oracle[q] = r->answer;
  }

  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    failpoints::DisarmAll();
    failpoints::ResetStats();

    // Transient faults across the execution layer plus an exception site
    // at the physical dispatch, each on its own seed-derived schedule.
    failpoints::ArmProbabilistic("exec.scan.open",
                                 Status::Transient("chaos: scan"), 0.03,
                                 Mix(seed ^ 1));
    failpoints::ArmProbabilistic("exec.hash.insert",
                                 Status::Transient("chaos: hash"), 0.002,
                                 Mix(seed ^ 2));
    failpoints::ArmProbabilistic("exec.materialize.insert",
                                 Status::Transient("chaos: materialize"),
                                 0.002, Mix(seed ^ 3));
    failpoints::ArmProbabilistic("exec.iterator.open",
                                 Status::Transient("chaos: open"), 0.02,
                                 Mix(seed ^ 4));
    failpoints::ArmProbabilistic("translate.plan",
                                 Status::Transient("chaos: translate"), 0.05,
                                 Mix(seed ^ 5));
    failpoints::ArmProbabilistic("exec.physical.throw",
                                 Status::Internal("chaos: operator throw"),
                                 0.01, Mix(seed ^ 6));

    ServiceOptions service_options;
    service_options.max_queue_depth = 32;
    service_options.retry.max_attempts = 6;
    service_options.retry.initial_backoff = 50us;
    service_options.retry.max_backoff = 2ms;
    service_options.seed = seed;
    QueryService service(&qp, service_options);

    std::atomic<size_t> wrong_answers{0};
    std::atomic<size_t> bad_codes{0};
    std::atomic<size_t> ok_replies{0};
    std::atomic<size_t> clean_errors{0};
    std::mutex diag_mutex;
    std::vector<std::string> diagnostics;

    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = 0; i < kRequestsPerThread; ++i) {
          const uint64_t draw = Mix(seed ^ (t * 1000003 + i));
          const size_t q = draw % kWorkloadSize;
          ServiceRequest request;
          request.text = kWorkload[q].text;
          request.strategy = kWorkload[q].strategy;
          request.priority = static_cast<Priority>(draw / 7 % 3);
          // A slice of requests carries a deadline so the deadline-aware
          // paths (shedding, queue timeout, bounded retries) see load.
          if (draw % 5 == 0) {
            request.options.deadline = 100ms;
          }
          auto reply = service.Submit(request);
          if (reply.ok()) {
            ok_replies.fetch_add(1);
            if (!AnswersEqual(oracle[q], reply->execution.answer)) {
              wrong_answers.fetch_add(1);
              std::lock_guard<std::mutex> lock(diag_mutex);
              diagnostics.push_back(std::string("wrong answer for: ") +
                                    kWorkload[q].text);
            }
          } else {
            const StatusCode code = reply.status().code();
            if (code == StatusCode::kTransient ||
                code == StatusCode::kResourceExhausted ||
                code == StatusCode::kDeadlineExceeded) {
              clean_errors.fetch_add(1);
            } else {
              bad_codes.fetch_add(1);
              std::lock_guard<std::mutex> lock(diag_mutex);
              diagnostics.push_back("unexpected error class: " +
                                    reply.status().ToString());
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    failpoints::DisarmAll();

    // The core invariant: oracle answer or clean transient error, nothing
    // else, ever.
    EXPECT_EQ(wrong_answers.load(), 0u);
    EXPECT_EQ(bad_codes.load(), 0u);
    for (const std::string& d : diagnostics) ADD_FAILURE() << d;

    constexpr size_t kTotal = kClientThreads * kRequestsPerThread;
    EXPECT_EQ(ok_replies.load() + clean_errors.load() + wrong_answers.load() +
                  bad_codes.load(),
              kTotal);
    // The schedule must have actually injected: a chaos run where nothing
    // fired tests nothing.
    size_t fires = 0;
    for (const auto& [site, stats] : failpoints::Stats()) {
      EXPECT_LE(stats.fires, stats.hits) << site;
      fires += stats.fires;
    }
    EXPECT_GT(fires, 0u) << "no failpoint fired — chaos schedule inert";
    EXPECT_GT(ok_replies.load(), 0u)
        << "every request failed — retries/degradation never rescued one";

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kTotal);
    EXPECT_EQ(stats.completed + stats.failed, kTotal);
    EXPECT_EQ(stats.completed, ok_replies.load());
    EXPECT_LE(stats.peak_running, service.max_concurrency());

    // Post-chaos recovery: with the schedule disarmed the same service
    // answers every workload query correctly — no poisoned state, no
    // stuck slots, no lingering degradation.
    for (size_t q = 0; q < kWorkloadSize; ++q) {
      auto r = service.Run(kWorkload[q].text, kWorkload[q].strategy);
      ASSERT_TRUE(r.ok()) << kWorkload[q].text << ": " << r.status();
      EXPECT_TRUE(AnswersEqual(oracle[q], r->execution.answer))
          << kWorkload[q].text;
      EXPECT_EQ(r->attempts, 1u);
    }
  }
}

TEST_F(ChaosServiceTest, SaturationShedsButNeverLies) {
  // Overload chaos: a tiny service (1 slot, 2 queue seats) hammered by 8
  // threads. Most requests are shed; the ones that answer must answer
  // correctly, and every rejection must carry a usable retry-after hint.
  UniversityConfig config;
  config.students = 40;
  config.seed = 11;
  Database db = MakeUniversity(config);
  QueryProcessor qp(&db);
  const ChaosQuery& query = kWorkload[2];
  auto oracle = qp.Run(query.text, query.strategy);
  ASSERT_TRUE(oracle.ok());

  failpoints::ArmProbabilistic("exec.scan.open",
                               Status::Transient("chaos: scan"), 0.05, 99);

  ServiceOptions service_options;
  service_options.max_concurrency = 1;
  service_options.max_queue_depth = 2;
  service_options.retry.max_attempts = 3;
  service_options.retry.initial_backoff = 50us;
  QueryService service(&qp, service_options);

  std::atomic<size_t> wrong{0}, bad_rejections{0}, answered{0}, shed{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < 30; ++i) {
        auto reply = service.Run(query.text, query.strategy);
        if (reply.ok()) {
          answered.fetch_add(1);
          if (!AnswersEqual(oracle->answer, reply->execution.answer)) {
            wrong.fetch_add(1);
          }
        } else if (reply.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
          if (RetryAfterMsHint(reply.status()) == 0) bad_rejections.fetch_add(1);
        } else if (!reply.status().IsTransient()) {
          bad_rejections.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(bad_rejections.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  ServiceStats stats = service.stats();
  EXPECT_LE(stats.peak_running, 1u);
  EXPECT_LE(stats.peak_waiting, 2u);
}

}  // namespace
}  // namespace bryql
