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

/// Evaluates every kJoinCases member over (left, right) at batch sizes
/// {default, 1} and compares with the brute-force reference.
void ExpectHashJoinMatchesBruteForce(const Relation& left,
                                     const Relation& right,
                                     const std::string& label) {
  Database db;
  db.Put("left", left);
  db.Put("right", right);
  for (const JoinCase& jc : kJoinCases) {
    const ExprPtr expr = jc.make(Expr::Scan("left"), Expr::Scan("right"));
    const Relation expected = BruteForceJoin(*expr, left, right);
    for (size_t batch_size : {kDefaultBatchSize, size_t{1}}) {
      ExecOptions options;
      options.batch_size = batch_size;
      Executor executor(&db, options);
      auto got = executor.Evaluate(expr);
      ASSERT_TRUE(got.ok()) << jc.name << " [" << label << ", batch "
                            << batch_size << "]: " << got.status();
      EXPECT_EQ(*got, expected)
          << jc.name << " [" << label << ", batch " << batch_size << "]";
    }
  }
}

/// Pairs whose key column mixes kinds: Int(k) and the equal Double(k),
/// Double(k + 0.5) (equal to no Int), strings and ∅. The in-place key
/// hash must send Int(2) and Double(2.0) to one bucket and compare them
/// equal, and keep ∅ and strings apart from numbers.
Relation MixedKindPairs(size_t n, uint64_t seed) {
  Relation rel(2);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>(state >> 33);
  };
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = next() % 8;
    Value key;
    switch (next() % 5) {
      case 0:
        key = Value::Int(k);
        break;
      case 1:
        key = Value::Double(static_cast<double>(k));
        break;
      case 2:
        key = Value::Double(static_cast<double>(k) + 0.5);
        break;
      case 3:
        key = Value::String("s" + std::to_string(k));
        break;
      default:
        key = Value::Null();
        break;
    }
    rel.Insert(Tuple({key, Value::Int(next() % 5)}));
  }
  return rel;
}

class JoinParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinParityTest, HashJoinMatchesBruteForceOnEveryJoinKind) {
  const uint64_t seed = GetParam();
  const Relation left = RandomPairs(60, 20, seed);
  const Relation right = RandomPairs(40, 20, seed + 1000);
  const std::string suffix = ", seed " + std::to_string(seed);
  ExpectHashJoinMatchesBruteForce(left, right, "seeded" + suffix);
  ExpectHashJoinMatchesBruteForce(Relation(2), right, "empty-left" + suffix);
  ExpectHashJoinMatchesBruteForce(left, Relation(2), "empty-right" + suffix);
}

TEST(JoinParityMixedKindsTest, MixedKindKeysMatchBruteForce) {
  const Relation left = MixedKindPairs(80, 23);
  const Relation right = MixedKindPairs(50, 1023);
  // The draw must actually exercise cross-kind equality.
  bool int_meets_double = false;
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      int_meets_double |= l.at(0).kind() != r.at(0).kind() &&
                          l.at(0) == r.at(0);
    }
  }
  ASSERT_TRUE(int_meets_double);
  ExpectHashJoinMatchesBruteForce(left, right, "mixed-kinds, seed 23");
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
