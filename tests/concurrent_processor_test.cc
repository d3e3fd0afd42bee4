// Concurrency between queries. Every query runs serially on its caller's
// thread, but many callers may share one QueryProcessor — and so one plan
// cache and one lazily rebuilt "dom" view — and must never race or lose
// counter increments; scripts/check.sh runs this binary under TSan. Also
// pins the serial runtime's short-circuits (empty build sides, boolean
// roots) and that the compatibility field QueryOptions::num_threads
// changes nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "algebra/expr.h"
#include "common/governor.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "workload/university.h"

namespace bryql {
namespace {

UniversityConfig SmallConfig(uint64_t seed) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = seed;
  return config;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.closed != b.closed) return false;
  return a.closed ? a.truth == b.truth : a.relation == b.relation;
}

// ---------------------------------------------------------------------
// num_threads is inert: the paper suite under every algebra strategy,
// with column stores on, gives the same answers and the same four
// counters whatever degree is asked for.

TEST(InertThreadsTest, NumThreadsChangesNoAnswerAndNoCounter) {
  Database db = MakeUniversity(SmallConfig(7));
  db.EnableColumnarAll();
  QueryProcessor qp(&db);
  for (Strategy strategy : {Strategy::kBry, Strategy::kBryDivision,
                            Strategy::kQuelCounting,
                            Strategy::kBryUnionFilters}) {
    for (const NamedQuery& nq : PaperQuerySuite()) {
      const std::string label = nq.name + " " + StrategyName(strategy);
      auto serial = qp.Run(nq.text, strategy);
      ASSERT_TRUE(serial.ok()) << label << ": " << serial.status();
      for (size_t threads : {0u, 4u, 64u}) {
        QueryOptions options;
        options.num_threads = threads;
        auto run = qp.Run(nq.text, strategy, options);
        const std::string at = label + " @" + std::to_string(threads);
        ASSERT_TRUE(run.ok()) << at << ": " << run.status();
        EXPECT_TRUE(SameAnswer(serial->answer, run->answer)) << at;
        EXPECT_EQ(run->stats.tuples_scanned, serial->stats.tuples_scanned)
            << at;
        EXPECT_EQ(run->stats.tuples_materialized,
                  serial->stats.tuples_materialized)
            << at;
        EXPECT_EQ(run->stats.comparisons, serial->stats.comparisons) << at;
        EXPECT_EQ(run->stats.hash_probes, serial->stats.hash_probes) << at;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Boolean roots and empty build sides.

/// A boolean root is RunBool's truth value, never an admitted
/// materialization: NonEmpty(π₀ student) under a one-tuple materialize
/// budget admits only the projection's first witness, so it succeeds.
TEST(BooleanRootTest, TruthTupleIsNotAdmitted) {
  Database db = MakeUniversity(SmallConfig(1));
  const ExprPtr expr =
      Expr::NonEmpty(Expr::Project(Expr::Scan("student"), {0}));
  QueryOptions options;
  options.max_materialized_tuples = 1;
  ResourceGovernor governor(options);
  Executor executor(&db, {}, &governor);
  auto rel = executor.Evaluate(expr);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->size(), 1u);  // {()}: true
  EXPECT_EQ(executor.stats().tuples_materialized, 1u);
}

/// An inner or semi join whose build side is empty has an empty answer,
/// so it never pulls its probe side.
Database NoProfessors() {
  UniversityConfig config = SmallConfig(1);
  config.students = 3000;
  Database db = MakeUniversity(config);
  db.Put("professor", Relation(1));
  return db;
}

TEST(EmptyBuildSideTest, ProductWithEmptyBuildSideSkipsItsProbeSide) {
  Database db = NoProfessors();
  QueryProcessor qp(&db);
  auto run = qp.Run("{ x, y | student(x) & professor(y) }", Strategy::kBry);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->answer.relation.empty());
  EXPECT_EQ(run->stats.hash_probes, 0u);
  EXPECT_EQ(run->stats.tuples_scanned, 0u);  // students never streamed
}

TEST(EmptyBuildSideTest, SemiJoinWithEmptyBuildSideSkipsItsProbeSide) {
  Database db = NoProfessors();
  const ExprPtr expr =
      Expr::SemiJoin(Expr::Scan("student"), Expr::Scan("professor"), {{0, 0}});
  Executor executor(&db);
  auto rel = executor.Evaluate(expr);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_TRUE(rel->empty());
  EXPECT_EQ(executor.stats().hash_probes, 0u);
  EXPECT_EQ(executor.stats().tuples_scanned, 0u);
}

// ---------------------------------------------------------------------
// Concurrent QueryProcessor use: one processor, one plan cache, many
// threads. The TSan phase of scripts/check.sh turns any race here into a
// failure; the assertions below catch lost counter updates.

TEST(ConcurrentQueryProcessorTest, ManyThreadsShareOneProcessorAndCache) {
  Database db = MakeUniversity(SmallConfig(5));
  db.EnableColumnarAll();
  QueryProcessor qp(&db);
  const std::vector<NamedQuery> suite = PaperQuerySuite();
  const size_t kQueries = 4;
  const size_t kThreads = 8;
  const size_t kRepeats = 3;

  // Serial reference answers, computed before any concurrency.
  std::vector<Execution> reference;
  for (size_t q = 0; q < kQueries; ++q) {
    auto run = qp.Run(suite[q].text, Strategy::kBry);
    ASSERT_TRUE(run.ok()) << suite[q].name << ": " << run.status();
    reference.push_back(std::move(*run));
  }
  qp.ClearPlanCache();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (size_t r = 0; r < kRepeats; ++r) {
        for (size_t q = 0; q < kQueries; ++q) {
          // Cached plans (and their column stores) are instantiated by
          // several threads at once.
          auto run = qp.Run(suite[q].text, Strategy::kBry);
          if (!run.ok() || !SameAnswer(run->answer, reference[q].answer)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No lost increments: every Run was exactly one cache hit or miss.
  const PlanCacheStats stats = qp.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            kThreads * kRepeats * kQueries + kQueries /* reference runs */);
  // Each distinct query misses at least once after the Clear; racing
  // threads may each miss-and-prepare the same query, never fewer.
  EXPECT_GE(stats.misses, kQueries);
  EXPECT_LE(qp.cache_size(), kQueries);
}

/// The "dom" view (§2.1) is rebuilt lazily by the first lookup after a
/// catalog write. After each Put, concurrent classical and
/// domain-closure readers all miss at once; they must share one rebuild
/// without racing and every one must see the new domain.
TEST(ConcurrentQueryProcessorTest, DomViewRebuildAfterPutIsRaceFree) {
  Database db = MakeUniversity(SmallConfig(5));
  QueryProcessor qp(&db);
  qp.EnableDomainClosure();
  // Unrestricted queries: the classical translation ranges x over "dom",
  // and domain closure inserts a dom(x) range atom for kBry.
  const std::vector<std::string> texts = {
      "{ x | ~student(x) }", "exists x: ~student(x) & ~lecture(x, db)"};
  const std::vector<Strategy> strategies = {Strategy::kClassical,
                                            Strategy::kBry};
  for (const std::string& text : texts) {
    auto explain = qp.Explain(text, Strategy::kClassical);
    ASSERT_TRUE(explain.ok()) << text << ": " << explain.status();
    ASSERT_NE(explain->plan->ToString().find("dom"), std::string::npos)
        << text << " must read the dom view";
  }
  const size_t kThreads = 4;
  const size_t kRounds = 3;

  for (size_t round = 0; round < kRounds; ++round) {
    // A write that grows the domain: answers computed on a stale view
    // would miss the new value.
    Relation extra(1);
    ASSERT_TRUE(
        extra.Insert(Tuple({Value::String("new" + std::to_string(round))}))
            .ok());
    db.Put("extra" + std::to_string(round), std::move(extra));

    // References from the nested-loop oracle on a copy, so the shared
    // catalog's view is still stale when the threads start.
    Database copy = db;
    QueryProcessor oracle_qp(&copy);
    oracle_qp.EnableDomainClosure();
    std::vector<Execution> reference;
    for (const std::string& text : texts) {
      auto run = oracle_qp.Run(text, Strategy::kNestedLoop);
      ASSERT_TRUE(run.ok()) << text << ": " << run.status();
      reference.push_back(std::move(*run));
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        for (size_t i = 0; i < texts.size(); ++i) {
          const size_t q = (i + t) % texts.size();
          const Strategy s = strategies[t % strategies.size()];
          auto run = qp.Run(texts[q], s);
          if (!run.ok() || !SameAnswer(run->answer, reference[q].answer)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace bryql
