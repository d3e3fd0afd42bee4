// The columnar differential suite: the row engine stays authoritative,
// and a database with column stores enabled must produce bit-identical
// answers — and matching governor counters where execution is
// deterministic — across the whole 16-query paper suite, under tuple
// budgets, and down the service layer's degradation ladder.
// `comparisons` is deliberately not compared: fewer comparisons at equal
// answers is the columnar layer's entire point.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_processor.h"
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

ExecOptions RowOnlyOptions() {
  ExecOptions options;
  options.use_columnar = false;
  return options;
}

void ExpectSameAnswer(const Execution& a, const Execution& b,
                      const std::string& label) {
  ASSERT_EQ(a.answer.closed, b.answer.closed) << label;
  if (a.answer.closed) {
    EXPECT_EQ(a.answer.truth, b.answer.truth) << label;
  } else {
    EXPECT_EQ(a.answer.relation, b.answer.relation) << label;
  }
}

class ColumnarDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    db_ = MakeUniversity(SmallConfig(GetParam()));
    db_.EnableColumnarAll();
  }

  Database db_;
};

/// Whole suite: answers must be bit-identical, and the budget counters
/// (scanned, materialized) must match.
TEST_P(ColumnarDifferentialTest, SuiteAgreesWithRowEngine) {
  QueryProcessor columnar_qp(&db_);
  QueryProcessor row_qp(&db_);
  row_qp.SetExecOptions(RowOnlyOptions());

  for (const NamedQuery& nq : PaperQuerySuite()) {
    auto row = row_qp.Run(nq.text, Strategy::kBry);
    auto col = columnar_qp.Run(nq.text, Strategy::kBry);
    ASSERT_TRUE(row.ok()) << nq.name << ": " << row.status();
    ASSERT_TRUE(col.ok()) << nq.name << ": " << col.status();
    ExpectSameAnswer(*row, *col, nq.name);
    EXPECT_EQ(col->stats.tuples_scanned, row->stats.tuples_scanned)
        << nq.name;
    EXPECT_EQ(col->stats.tuples_materialized, row->stats.tuples_materialized)
        << nq.name;
  }
}

/// One budget stops both representations identically: equal answers when
/// both fit, the same StatusCode when either trips.
TEST_P(ColumnarDifferentialTest, BudgetsTripIdentically) {
  QueryProcessor columnar_qp(&db_);
  QueryProcessor row_qp(&db_);
  row_qp.SetExecOptions(RowOnlyOptions());

  struct Budget {
    const char* label;
    QueryOptions options;
  };
  std::vector<Budget> budgets;
  for (size_t cap : {3u, 25u, 400u}) {
    QueryOptions scan;
    scan.max_scanned_tuples = cap;
    budgets.push_back({"scan", scan});
    QueryOptions mat;
    mat.max_materialized_tuples = cap;
    budgets.push_back({"materialize", mat});
  }

  for (const Budget& budget : budgets) {
    for (const NamedQuery& nq : PaperQuerySuite()) {
      const std::string label = nq.name + " [" + budget.label + " cap]";
      auto row = row_qp.Run(nq.text, Strategy::kBry, budget.options);
      auto col = columnar_qp.Run(nq.text, Strategy::kBry, budget.options);
      ASSERT_EQ(row.ok(), col.ok())
          << label << ": row=" << row.status() << " col=" << col.status();
      if (row.ok()) {
        ExpectSameAnswer(*row, *col, label);
        EXPECT_EQ(col->stats.tuples_scanned, row->stats.tuples_scanned)
            << label;
      } else {
        EXPECT_EQ(row.status().code(), col.status().code())
            << label << ": row=" << row.status() << " col=" << col.status();
      }
    }
  }
}

/// The service degradation ladder drives the same query as requested
/// (a cached plan) and then with a cold, cache-bypassed plan. Each rung
/// must preserve the row/columnar agreement.
TEST_P(ColumnarDifferentialTest, DegradationLadderPreservesParity) {
  QueryProcessor columnar_qp(&db_);
  QueryProcessor row_qp(&db_);
  row_qp.SetExecOptions(RowOnlyOptions());

  struct Rung {
    const char* label;
    QueryOptions options;
  };
  std::vector<Rung> ladder;
  ladder.push_back({"as-requested", QueryOptions{}});
  QueryOptions bypass;
  bypass.bypass_plan_cache = true;
  ladder.push_back({"bypass-cache", bypass});

  for (const Rung& rung : ladder) {
    for (const NamedQuery& nq : PaperQuerySuite()) {
      const std::string label = nq.name + " [" + rung.label + "]";
      auto row = row_qp.Run(nq.text, Strategy::kBry, rung.options);
      auto col = columnar_qp.Run(nq.text, Strategy::kBry, rung.options);
      ASSERT_TRUE(row.ok()) << label << ": " << row.status();
      ASSERT_TRUE(col.ok()) << label << ": " << col.status();
      ExpectSameAnswer(*row, *col, label);
    }
  }
}

/// Enabling column stores moves the catalog version, so plans prepared
/// before stay row-path and correct, and re-running after the enable
/// re-lowers onto the columnar path without changing any answer.
TEST_P(ColumnarDifferentialTest, EnableColumnarInvalidatesCachedPlans) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);
  const NamedQuery nq = PaperQuerySuite().front();
  auto before = qp.Run(nq.text, Strategy::kBry);
  ASSERT_TRUE(before.ok()) << before.status();

  const uint64_t version = db.version();
  db.EnableColumnarAll();
  EXPECT_GT(db.version(), version);
  // Idempotent: every store already exists, the version must not move.
  const uint64_t after_enable = db.version();
  db.EnableColumnarAll();
  EXPECT_EQ(db.version(), after_enable);

  auto after = qp.Run(nq.text, Strategy::kBry);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->plan_cache_hit);  // stale plan re-lowered
  ExpectSameAnswer(*before, *after, nq.name + " across enable");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferentialTest,
                         ::testing::Values(1u, 2u, 7u));

}  // namespace
}  // namespace bryql
