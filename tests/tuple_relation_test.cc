#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/builder.h"
#include "storage/relation.h"
#include "storage/row_id_index.h"
#include "storage/tuple.h"

namespace bryql {
namespace {

TEST(TupleTest, ConcatAndProject) {
  Tuple a = Ints({1, 2});
  Tuple b = Ints({3});
  Tuple c = a.Concat(b);
  EXPECT_EQ(c.arity(), 3u);
  EXPECT_EQ(c.at(2), Value::Int(3));
  Tuple p = c.Project({2, 0, 0});
  EXPECT_EQ(p, Ints({3, 1, 1}));
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ(Ints({1, 2}), Ints({1, 2}));
  EXPECT_NE(Ints({1, 2}), Ints({2, 1}));
  EXPECT_LT(Ints({1, 2}), Ints({1, 3}));
  EXPECT_LT(Ints({1}), Ints({1, 0}));  // shorter first
}

TEST(TupleTest, HashConsistency) {
  EXPECT_EQ(Ints({1, 2}).Hash(), Ints({1, 2}).Hash());
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(Strs({"a", "b"}).ToString(), "('a', 'b')");
  EXPECT_EQ(Tuple{}.ToString(), "()");
}

TEST(RelationTest, SetSemantics) {
  Relation r(1);
  EXPECT_TRUE(*r.Insert(Ints({1})));
  EXPECT_FALSE(*r.Insert(Ints({1})));  // duplicate collapses
  EXPECT_TRUE(*r.Insert(Ints({2})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Ints({1})));
  EXPECT_FALSE(r.Contains(Ints({3})));
}

TEST(RelationTest, InsertsAcrossSeveralGrowths) {
  // The row-id index starts at 16 slots and doubles before half full, so
  // 5000 rows cross nine growths; every row must stay findable.
  Relation r(2);
  for (int64_t i = 0; i < 5000; ++i) {
    EXPECT_TRUE(*r.Insert(Ints({i, i % 7})));
    EXPECT_FALSE(*r.Insert(Ints({i, i % 7})));
  }
  EXPECT_EQ(r.size(), 5000u);
  for (int64_t i = 0; i < 5000; ++i) {
    EXPECT_TRUE(r.Contains(Ints({i, i % 7}))) << i;
    EXPECT_FALSE(r.Contains(Ints({i, i % 7 + 1}))) << i;
  }
  EXPECT_EQ(r.rows()[4321], Ints({4321, 4321 % 7}));  // insertion order
}

TEST(RelationTest, IntAndEqualDoubleAreOneRow) {
  Relation r(2);
  EXPECT_TRUE(*r.Insert(Tuple({Value::Int(2), Value::String("a")})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Double(2.0), Value::String("a")})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Tuple({Value::Int(2), Value::String("a")})));
  EXPECT_TRUE(r.Contains(Tuple({Value::Double(2.0), Value::String("a")})));
  EXPECT_FALSE(r.Contains(Tuple({Value::Double(2.5), Value::String("a")})));
  // In-place projections collapse the same way.
  Relation keys(1);
  EXPECT_TRUE(*keys.InsertProjection(Tuple({Value::String("x"),
                                            Value::Double(2.0)}),
                                     {1}));
  const Tuple probe({Value::Int(2)});
  EXPECT_FALSE(*keys.InsertProjection(probe, {0}));
  EXPECT_TRUE(keys.ContainsProjection(probe, {0}, probe.HashOf({0})));
  EXPECT_EQ(keys.size(), 1u);
}

TEST(RelationTest, NullMarkAndStringRows) {
  Relation r(2);
  const Tuple null_row({Value::String("a"), Value::Null()});
  const Tuple mark_row({Value::String("a"), Value::Mark()});
  const Tuple string_row({Value::String("a"), Value::String("")});
  EXPECT_TRUE(*r.Insert(null_row));
  EXPECT_TRUE(*r.Insert(mark_row));
  EXPECT_TRUE(*r.Insert(string_row));
  EXPECT_FALSE(*r.Insert(null_row));
  EXPECT_FALSE(*r.Insert(mark_row));
  EXPECT_FALSE(*r.Insert(string_row));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains(null_row));
  EXPECT_TRUE(r.Contains(mark_row));
  EXPECT_FALSE(r.Contains(Tuple({Value::String("b"), Value::Null()})));
}

TEST(RelationTest, ContainsAfterCopyAndMove) {
  Relation r(1);
  for (int64_t i = 0; i < 100; ++i) ASSERT_TRUE(*r.Insert(Ints({i})));
  Relation copy = r;
  Relation assigned(3);
  assigned = r;
  Relation moved = std::move(r);
  for (const Relation* rel : {&copy, &assigned, &moved}) {
    EXPECT_EQ(rel->size(), 100u);
    for (int64_t i = 0; i < 100; ++i) EXPECT_TRUE(rel->Contains(Ints({i})));
    EXPECT_FALSE(rel->Contains(Ints({100})));
  }
  // The copy's index is its own: inserting into it leaves `moved` alone.
  EXPECT_TRUE(*copy.Insert(Ints({100})));
  EXPECT_TRUE(copy.Contains(Ints({100})));
  EXPECT_FALSE(moved.Contains(Ints({100})));
  EXPECT_EQ(assigned, moved);
  EXPECT_NE(copy, moved);
}

TEST(RowIdIndexTest, RowIdBeyondThirtyTwoBitsIsRefusedNotWrapped) {
  RowIdIndex index;
  auto never_equal = [](uint32_t) { return false; };
  // 2^32 would truncate to row 0 and 2^32 - 1 is the empty-slot marker:
  // both are refused and nothing lands in the index.
  for (size_t row : {size_t{1} << 32, size_t{RowIdIndex::kMaxRows}}) {
    const RowIdIndex::Entry entry = index.FindOrInsert(7, row, never_equal);
    EXPECT_FALSE(entry.inserted);
    EXPECT_EQ(entry.row, RowIdIndex::kNoRow);
  }
  EXPECT_TRUE(index.empty());
  const RowIdIndex::Entry last =
      index.FindOrInsert(7, RowIdIndex::kMaxRows - 1, never_equal);
  EXPECT_TRUE(last.inserted);
  EXPECT_EQ(last.row, RowIdIndex::kMaxRows - 1);
  EXPECT_EQ(index.Find(7, [](uint32_t) { return true; }),
            RowIdIndex::kMaxRows - 1);
}

TEST(RelationTest, FromDistinctRowsIndexesEveryRow) {
  auto rel = Relation::FromDistinctRows(1, {Ints({3}), Ints({1}), Ints({2})});
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->size(), 3u);
  EXPECT_TRUE(rel->Contains(Ints({1})));
  EXPECT_FALSE(*rel->Insert(Ints({2})));
  EXPECT_TRUE(*rel->Insert(Ints({4})));
  EXPECT_FALSE(Relation::FromDistinctRows(2, {Ints({1})}).ok());
}

TEST(RelationTest, InsertRejectsArityMismatch) {
  Relation r(2);
  auto bad = r.Insert(Ints({1}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.size(), 0u);  // rejected tuple never lands in the row store
  auto also_bad = r.Insert(Ints({1, 2, 3}));
  EXPECT_FALSE(also_bad.ok());
  EXPECT_TRUE(*r.Insert(Ints({1, 2})));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, BuildIndexRejectsOutOfRangeColumn) {
  Relation r(2);
  EXPECT_TRUE(*r.Insert(Ints({1, 2})));
  EXPECT_TRUE(r.BuildIndex(1).ok());
  auto bad = r.BuildIndex(2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, MatchesWithoutIndexIsEmptyNotUB) {
  Relation r(2);
  EXPECT_TRUE(*r.Insert(Ints({1, 2})));
  // No index on column 0: degrade to "no hits" instead of asserting.
  EXPECT_TRUE(r.Matches(0, Value::Int(1)).empty());
}

TEST(RelationTest, FromRowsRejectsMixedArity) {
  auto bad = Relation::FromRows({Ints({1}), Ints({1, 2})});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, FromRowsDeduplicates) {
  auto r = Relation::FromRows({Ints({1}), Ints({1}), Ints({2})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(RelationTest, EqualityIsOrderInsensitive) {
  auto a = Relation::FromRows({Ints({1}), Ints({2})});
  auto b = Relation::FromRows({Ints({2}), Ints({1})});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(RelationTest, InequalityBySizeAndContent) {
  auto a = Relation::FromRows({Ints({1})});
  auto b = Relation::FromRows({Ints({2})});
  auto c = Relation::FromRows({Ints({1}), Ints({2})});
  EXPECT_NE(*a, *b);
  EXPECT_NE(*a, *c);
}

TEST(RelationTest, ArityZeroEncodesBooleans) {
  Relation fals(0);
  Relation tru(0);
  tru.Insert(Tuple{});
  EXPECT_TRUE(fals.empty());
  EXPECT_EQ(tru.size(), 1u);
  EXPECT_FALSE(*tru.Insert(Tuple{}));  // only one empty tuple exists
}

TEST(RelationTest, SortedRows) {
  auto r = Relation::FromRows({Ints({3}), Ints({1}), Ints({2})});
  std::vector<Tuple> sorted = r->SortedRows();
  EXPECT_EQ(sorted.front(), Ints({1}));
  EXPECT_EQ(sorted.back(), Ints({3}));
}

TEST(BuilderTest, Helpers) {
  Relation u = UnaryStrings({"a", "b", "a"});
  EXPECT_EQ(u.size(), 2u);
  Relation p = StringPairs({{"a", "x"}, {"b", "y"}});
  EXPECT_EQ(p.arity(), 2u);
  EXPECT_TRUE(p.Contains(Strs({"b", "y"})));
  EXPECT_EQ(UnaryInts({1, 2, 3}).size(), 3u);
}

}  // namespace
}  // namespace bryql
