#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "storage/builder.h"
#include "storage/relation.h"
#include "storage/row_id_index.h"
#include "storage/tuple.h"

// Every allocation of this binary is counted, so a test can check that
// an operation allocates nothing.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined, so the compiler does not pair malloc/free across the
// replaced operators and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bryql {
namespace {

/// The number of allocations `op()` performs.
template <typename Op>
size_t AllocationsOf(Op&& op) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  op();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// `n` distinct values: ints, then strings.
std::vector<Value> Row(size_t n, int64_t base = 0) {
  std::vector<Value> row;
  for (size_t i = 0; i < n; ++i) {
    row.push_back(i % 2 == 0 ? Value::Int(base + static_cast<int64_t>(i))
                             : Value::String("v" + std::to_string(base + i)));
  }
  return row;
}

void ExpectValues(const Tuple& t, const std::vector<Value>& expected) {
  ASSERT_EQ(t.arity(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(t.at(i), expected[i]) << i;
  }
  EXPECT_TRUE(std::equal(t.values().begin(), t.values().end(),
                         expected.begin(), expected.end()));
}

static_assert(sizeof(Tuple) == 40, "two in-place values and size/capacity");

TEST(TupleTest, AritiesZeroToFiveAcrossTheInlineBoundary) {
  for (size_t n = 0; n <= 5; ++n) {
    const std::vector<Value> row = Row(n);
    const Tuple built(row);
    ExpectValues(built, row);
    Tuple appended;
    for (const Value& v : row) appended.Append(v);
    ExpectValues(appended, row);
    EXPECT_EQ(built, appended) << n;
    EXPECT_EQ(built.Hash(), appended.Hash()) << n;
    const Tuple copy = appended;
    ExpectValues(copy, row);
  }
}

TEST(TupleTest, CopyMoveAndSelfAssignmentInlineAndHeap) {
  const std::vector<Value> narrow = Row(2, 10);
  const std::vector<Value> wide = Row(4, 20);
  // Copy-assign across the boundary, both ways.
  Tuple t(narrow);
  t = Tuple(wide);
  ExpectValues(t, wide);
  const Tuple narrow_tuple(narrow);
  t = narrow_tuple;
  ExpectValues(t, narrow);
  const Tuple wide_tuple(wide);
  t = wide_tuple;
  ExpectValues(t, wide);
  // Move-assign across the boundary, both ways.
  Tuple heap(wide);
  Tuple in_place(narrow);
  heap = std::move(in_place);
  ExpectValues(heap, narrow);
  Tuple target(narrow);
  target = Tuple(wide);
  ExpectValues(target, wide);
  Tuple moved_heap(std::move(target));
  ExpectValues(moved_heap, wide);
  Tuple moved_inline(Tuple{narrow_tuple});
  ExpectValues(moved_inline, narrow);
  // Self-assignment leaves both forms intact.
  for (Tuple* self : {&moved_heap, &moved_inline}) {
    const Tuple before = *self;
    Tuple& alias = *self;
    *self = alias;
    EXPECT_EQ(*self, before);
    *self = std::move(alias);
    EXPECT_EQ(*self, before);
  }
}

TEST(TupleTest, MovedFromTupleIsEmptyAndReusable) {
  for (size_t n : {1u, 2u, 4u}) {
    Tuple source(Row(n));
    Tuple constructed(std::move(source));
    EXPECT_EQ(source.arity(), 0u) << n;  // NOLINT(bugprone-use-after-move)
    source.Append(Value::Int(7));
    ExpectValues(source, {Value::Int(7)});
    ExpectValues(constructed, Row(n));

    Tuple assigned;
    assigned = std::move(constructed);
    EXPECT_EQ(constructed.arity(), 0u) << n;  // NOLINT
    ExpectValues(assigned, Row(n));
    constructed = Tuple(Row(5));
    ExpectValues(constructed, Row(5));
  }
}

TEST(TupleTest, AssignGrowsAnInlineSlotAndReusesAWarmHeapSlot) {
  const Tuple a(Row(2, 0));
  const Tuple b(Row(2, 100));
  Tuple slot;
  slot.AssignConcat(a, b);
  std::vector<Value> ab = Row(2, 0);
  for (const Value& v : Row(2, 100)) ab.push_back(v);
  ExpectValues(slot, ab);

  Tuple padded;
  padded.AssignPadded(a, 3, Value::Null());
  ExpectValues(padded, {a.at(0), a.at(1), Value::Null(), Value::Null(),
                        Value::Null()});

  Tuple projected;
  projected.AssignProject(padded, {2, 1, 0, 0});
  ExpectValues(projected, {Value::Null(), a.at(1), a.at(0), a.at(0)});

  // The warm heap slot (capacity ≥ 4) takes smaller and equal tuples
  // without allocating.
  const Tuple c(Row(1, 7));
  const Tuple wide(Row(3, 9));
  const std::vector<size_t> last = {2};
  EXPECT_EQ(AllocationsOf([&] { slot.AssignConcat(c, c); }), 0u);
  ExpectValues(slot, {c.at(0), c.at(0)});
  EXPECT_EQ(AllocationsOf([&] { slot = wide; }), 0u);
  ExpectValues(slot, Row(3, 9));
  EXPECT_EQ(AllocationsOf([&] { slot.AssignPadded(wide, 1, Value::Mark()); }),
            0u);
  ExpectValues(slot, {wide.at(0), wide.at(1), wide.at(2), Value::Mark()});
  EXPECT_EQ(AllocationsOf([&] { slot.AssignProject(wide, last); }), 0u);
  ExpectValues(slot, {wide.at(2)});
}

TEST(TupleTest, ClearKeepsHeapCapacity) {
  Tuple t(Row(5));
  const std::vector<Value> other = Row(5, 50);
  t.Clear();
  EXPECT_EQ(t.arity(), 0u);
  EXPECT_EQ(AllocationsOf([&] {
              for (const Value& v : other) t.Append(v);
            }),
            0u);
  ExpectValues(t, other);
}

/// The tuple's order, equality and hashes are those of its value vector
/// with the hash seed and combiner below — what RowIdIndex slot order and
/// the 64-way shard choice are computed from.
TEST(TupleTest, OrderEqualityAndHashAgreeWithAValueVector) {
  const std::vector<Value> pool = {
      Value::Null(),       Value::Mark(),        Value::Int(2),
      Value::Double(2.0),  Value::Int(-1),       Value::Double(0.5),
      Value::String(""),   Value::String("a"),   Value::String("b"),
  };
  auto reference_hash = [](const std::vector<Value>& row) {
    size_t h = 0x51ed270b;
    for (const Value& v : row) h = HashCombine(h, v.Hash());
    return h;
  };
  std::mt19937 rng(1989);
  auto random_row = [&] {
    std::vector<Value> row(rng() % 5);
    for (Value& v : row) v = pool[rng() % pool.size()];
    return row;
  };
  for (int i = 0; i < 5000; ++i) {
    const std::vector<Value> x = random_row();
    const std::vector<Value> y = random_row();
    const Tuple tx(x);
    const Tuple ty(y);
    EXPECT_EQ(tx == ty, x == y);
    EXPECT_EQ(tx < ty, x < y);
    EXPECT_EQ(ty < tx, y < x);
    EXPECT_EQ(tx.Hash(), reference_hash(x));
    std::vector<size_t> columns;
    std::vector<Value> projected;
    for (size_t c = 0; c < x.size(); ++c) {
      if (rng() % 2 == 0) {
        columns.push_back(c);
        projected.push_back(x[c]);
      }
    }
    EXPECT_EQ(tx.HashOf(columns), reference_hash(projected));
    EXPECT_EQ(tx.Project(columns), Tuple(projected));
  }
}

TEST(TupleTest, NarrowTuplesCopyWithoutAllocating) {
  const Tuple one({Value::String("x")});
  const Tuple two({Value::Int(1), Value::String("y")});
  const std::vector<Value> four_values = Row(4);
  const Tuple four(four_values);
  const std::vector<size_t> columns = {3, 0};
  Tuple slot;
  for (const Tuple* t : {&one, &two}) {
    EXPECT_EQ(AllocationsOf([&] {
                Tuple copy = *t;
                slot = *t;
                Tuple moved = std::move(copy);
                slot = std::move(moved);
              }),
              0u);
    EXPECT_EQ(slot, *t);
  }
  EXPECT_EQ(AllocationsOf([&] { slot.AssignPadded(one, 1, Value::Null()); }),
            0u);
  EXPECT_EQ(slot, Tuple({one.at(0), Value::Null()}));
  EXPECT_EQ(AllocationsOf([&] { slot.AssignProject(four, columns); }), 0u);
  EXPECT_EQ(slot, Tuple({four_values[3], four_values[0]}));
  Tuple made;
  EXPECT_EQ(AllocationsOf([&] { made = four.Project(columns); }), 0u);
  EXPECT_EQ(made, slot);
  EXPECT_EQ(AllocationsOf([&] { made = one.Concat(one); }), 0u);
  EXPECT_EQ(made, Tuple({one.at(0), one.at(0)}));
}

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
