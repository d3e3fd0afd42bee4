// Join-family parity: every member of the join family — inner (with and
// without a residual), semi, anti (complement-join), outer and mark
// (constrained outer-join), each with and without a constraint, plus the
// difference/intersection reductions — must produce exactly the relation
// of a brute-force nested-loop reference written from Definitions 6/7, at
// the default batch size and at batch size 1 (tuple-at-a-time data flow).
// Parameterized over seeds so the inputs cover duplicates, empty partner
// sets and skewed keys; empty left and right inputs are checked too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "exec/executor.h"
#include "storage/database.h"
#include "random_data.h"

namespace bryql {
namespace {

struct JoinCase {
  std::string name;
  /// Builds the logical expression for this member of the join family.
  ExprPtr (*make)(ExprPtr left, ExprPtr right);
};

const JoinCase kJoinCases[] = {
    {"inner",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Join(std::move(l), std::move(r), {{0, 0}}, nullptr);
     }},
    {"inner-residual",
     [](ExprPtr l, ExprPtr r) {
       // Residual over the concatenated tuple: $1 (left payload) != $3
       // (right payload).
       return Expr::Join(std::move(l), std::move(r), {{0, 0}},
                         Predicate::ColCol(CompareOp::kNe, 1, 3));
     }},
    {"semi",
     [](ExprPtr l, ExprPtr r) {
       return Expr::SemiJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"anti",
     [](ExprPtr l, ExprPtr r) {
       return Expr::AntiJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"outer",
     [](ExprPtr l, ExprPtr r) {
       return Expr::OuterJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"outer-constrained",
     [](ExprPtr l, ExprPtr r) {
       return Expr::OuterJoin(std::move(l), std::move(r), {{0, 0}},
                              Predicate::ColVal(CompareOp::kLt, 1,
                                                Value::Int(3)));
     }},
    {"mark",
     [](ExprPtr l, ExprPtr r) {
       return Expr::MarkJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"mark-constrained",
     [](ExprPtr l, ExprPtr r) {
       return Expr::MarkJoin(std::move(l), std::move(r), {{0, 0}},
                             Predicate::ColVal(CompareOp::kLt, 1,
                                               Value::Int(3)));
     }},
    {"difference",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Difference(std::move(l), std::move(r));
     }},
    {"intersect",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Intersect(std::move(l), std::move(r));
     }},
};

class JoinParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinParityTest, HashJoinMatchesBruteForceOnEveryJoinKind) {
  const uint64_t seed = GetParam();
  const Relation left = RandomPairs(60, 20, seed);
  const Relation right = RandomPairs(40, 20, seed + 1000);
  const struct {
    const char* name;
    Relation left;
    Relation right;
  } inputs[] = {
      {"seeded", left, right},
      {"empty-left", Relation(2), right},
      {"empty-right", left, Relation(2)},
  };

  for (const auto& input : inputs) {
    Database db;
    db.Put("left", input.left);
    db.Put("right", input.right);
    for (const JoinCase& jc : kJoinCases) {
      const ExprPtr expr = jc.make(Expr::Scan("left"), Expr::Scan("right"));
      const Relation expected = BruteForceJoin(*expr, input.left, input.right);
      for (size_t batch_size : {kDefaultBatchSize, size_t{1}}) {
        ExecOptions options;
        options.batch_size = batch_size;
        Executor executor(&db, options);
        auto got = executor.Evaluate(expr);
        ASSERT_TRUE(got.ok()) << jc.name << " [" << input.name << ", batch "
                              << batch_size << "] seed " << seed << ": "
                              << got.status();
        EXPECT_EQ(*got, expected)
            << jc.name << " [" << input.name << ", batch " << batch_size
            << "] seed " << seed;
      }
    }
  }
}

/// Batch-size 1 degrades the batched engine to tuple-at-a-time data flow;
/// results must be unchanged.
TEST_P(JoinParityTest, TinyBatchesDoNotChangeAnswers) {
  const uint64_t seed = GetParam();
  Database db;
  db.Put("left", RandomPairs(50, 15, seed));
  db.Put("right", RandomPairs(30, 15, seed + 1000));

  for (const JoinCase& jc : kJoinCases) {
    const ExprPtr expr = jc.make(Expr::Scan("left"), Expr::Scan("right"));
    ExecOptions big;
    Executor ref(&db, big);
    auto expected = ref.Evaluate(expr);
    ASSERT_TRUE(expected.ok()) << jc.name << ": " << expected.status();
    for (size_t batch_size : {1u, 2u, 7u}) {
      ExecOptions options;
      options.batch_size = batch_size;
      Executor executor(&db, options);
      auto got = executor.Evaluate(expr);
      ASSERT_TRUE(got.ok()) << jc.name << ": " << got.status();
      EXPECT_EQ(*got, *expected)
          << jc.name << " batch_size=" << batch_size << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinParityTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u));

}  // namespace
}  // namespace bryql
