// Proposition 4 (§3.2): the five nested-quantification patterns translate
// to semi-join / complement-join / division shapes, with the division
// needed in only one case. Each equivalence is verified semantically on
// randomized databases against the nested-loop reference, and the plan
// shape (which operators appear) is pinned structurally.

#include <gtest/gtest.h>

#include "core/query_processor.h"
#include "storage/builder.h"
#include "random_data.h"

namespace bryql {
namespace {

// The five patterns of Proposition 4, as open queries in x.
const char* kCase1 =
    "{ x | exists y: R(x, y) & (exists z: S(x, y, z) & G(x, y, z)) }";
const char* kCase2a =
    "{ x | exists y: R(x, y) & (exists z: S(x, y, z) & ~G(x, y, z)) }";
const char* kCase2b =
    "{ x | exists y: R(x, y) & (exists z: T(y, z) & ~G(x, y, z)) }";
const char* kCase3 =
    "{ x | exists y: R(x, y) & ~(exists z: S(x, y, z) & G(x, y, z)) }";
const char* kCase4 =
    "{ x | exists y: R(x, y) & ~(exists z: S(x, y, z) & ~G(x, y, z)) }";
const char* kCase5 =
    "{ x | exists y: R(x, y) & ~(exists z: T(y, z) & ~G(x, y, z)) }";
// Case 5 with an inner range independent of the outer variables — the
// shape where the paper's literal division expression is exact.
const char* kCase5u =
    "{ x | exists y: R(x, y) & ~(exists z: T1(z) & ~G(x, y, z)) }";

class Proposition4Test : public ::testing::TestWithParam<unsigned> {};

TEST_P(Proposition4Test, AllCasesMatchNestedLoopReference) {
  Database db = Proposition4Db(GetParam(), /*domain=*/5, /*density=*/0.7);
  QueryProcessor qp(&db);
  for (const char* text :
       {kCase1, kCase2a, kCase2b, kCase3, kCase4, kCase5, kCase5u}) {
    auto reference = qp.Run(text, Strategy::kNestedLoop);
    ASSERT_TRUE(reference.ok()) << text << ": " << reference.status();
    for (Strategy s : {Strategy::kBry, Strategy::kBryDivision,
                       Strategy::kQuelCounting, Strategy::kClassical}) {
      auto got = qp.Run(text, s);
      ASSERT_TRUE(got.ok()) << StrategyName(s) << " " << text << ": "
                            << got.status();
      EXPECT_EQ(got->answer.relation, reference->answer.relation)
          << StrategyName(s) << " disagrees on " << text << " (seed "
          << GetParam() << ")\nplan:\n"
          << (got->plan ? got->plan->ToString() : "<none>");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Proposition4Test,
                         ::testing::Range(0u, 12u));

bool PlanContains(const ExprPtr& e, ExprKind kind) {
  if (e->kind() == kind) return true;
  for (const ExprPtr& c : e->children()) {
    if (PlanContains(c, kind)) return true;
  }
  return false;
}

TEST(Proposition4Shapes, OnlyCase5MayDivide) {
  Database db = Proposition4Db(1, 5, 0.7);
  QueryProcessor qp(&db);
  for (const char* text :
       {kCase1, kCase2a, kCase2b, kCase3, kCase4, kCase5}) {
    auto exec = qp.Explain(text, Strategy::kBry);
    ASSERT_TRUE(exec.ok()) << text << ": " << exec.status();
    EXPECT_FALSE(PlanContains(exec->plan, ExprKind::kDivision))
        << "default strategy must avoid division: " << text;
    EXPECT_FALSE(PlanContains(exec->plan, ExprKind::kProduct))
        << "no initial cartesian product: " << text;
  }
  // With the division strategy, only case 5 produces a division — and
  // only in its exact-division shape (independent inner range); the
  // correlated shape falls back to the complement-join rewrite.
  for (const char* text : {kCase1, kCase2a, kCase2b, kCase3, kCase4,
                           kCase5}) {
    auto exec = qp.Explain(text, Strategy::kBryDivision);
    ASSERT_TRUE(exec.ok());
    EXPECT_FALSE(PlanContains(exec->plan, ExprKind::kDivision)) << text;
  }
  auto case5 = qp.Explain(kCase5u, Strategy::kBryDivision);
  ASSERT_TRUE(case5.ok());
  EXPECT_TRUE(PlanContains(case5->plan, ExprKind::kDivision))
      << case5->plan->ToString();
  // The correlated shape uses the exact per-group division instead.
  auto case5g = qp.Explain(kCase5, Strategy::kBryDivision);
  ASSERT_TRUE(case5g.ok());
  EXPECT_TRUE(PlanContains(case5g->plan, ExprKind::kGroupDivision))
      << case5g->plan->ToString();
  EXPECT_FALSE(PlanContains(case5g->plan, ExprKind::kDivision));
}

TEST(Proposition4Shapes, NegatedCasesUseComplementJoin) {
  Database db = Proposition4Db(2, 5, 0.7);
  QueryProcessor qp(&db);
  for (const char* text : {kCase2a, kCase2b, kCase3, kCase4, kCase5}) {
    auto exec = qp.Explain(text, Strategy::kBry);
    ASSERT_TRUE(exec.ok());
    EXPECT_TRUE(PlanContains(exec->plan, ExprKind::kAntiJoin))
        << text << "\n"
        << exec->plan->ToString();
  }
}

TEST(Proposition4Shapes, PositiveCaseUsesSemiJoinOnly) {
  Database db = Proposition4Db(3, 5, 0.7);
  QueryProcessor qp(&db);
  auto exec = qp.Explain(kCase1, Strategy::kBry);
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(PlanContains(exec->plan, ExprKind::kSemiJoin) ||
              PlanContains(exec->plan, ExprKind::kJoin));
  EXPECT_FALSE(PlanContains(exec->plan, ExprKind::kAntiJoin));
}

TEST(Proposition4Shapes, ClassicalUsesProductAndDivision) {
  Database db = Proposition4Db(4, 5, 0.7);
  QueryProcessor qp(&db);
  auto exec = qp.Explain(kCase5, Strategy::kClassical);
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(PlanContains(exec->plan, ExprKind::kProduct))
      << exec->plan->ToString();
  EXPECT_TRUE(PlanContains(exec->plan, ExprKind::kDivision))
      << exec->plan->ToString();
}

TEST(Proposition4Edge, EmptyRelations) {
  Database db;
  db.Put("R", Relation(2));
  db.Put("S", Relation(3));
  db.Put("T", Relation(2));
  db.Put("G", Relation(3));
  QueryProcessor qp(&db);
  for (const char* text :
       {kCase1, kCase2a, kCase2b, kCase3, kCase4, kCase5}) {
    for (Strategy s : {Strategy::kBry, Strategy::kNestedLoop}) {
      auto got = qp.Run(text, s);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status();
      EXPECT_TRUE(got->answer.relation.empty()) << text;
    }
  }
}

TEST(Proposition4Edge, EmptyInnerRangeMakesUniversalTrue) {
  // ∀z over an empty T: vacuously true, so case 5 returns all of R's x.
  Database db;
  db.Put("R", *Relation::FromRows({Ints({1, 10}), Ints({2, 20})}));
  db.Put("T", Relation(2));
  db.Put("G", Relation(3));
  QueryProcessor qp(&db);
  for (Strategy s :
       {Strategy::kBry, Strategy::kBryDivision, Strategy::kNestedLoop}) {
    auto got = qp.Run(kCase5, s);
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": " << got.status();
    EXPECT_EQ(got->answer.relation.size(), 2u) << StrategyName(s);
  }
}

}  // namespace
}  // namespace bryql
