#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace bryql {
namespace {

// Copies are a memcpy and destruction is free: a kind byte plus an 8-byte
// payload, with strings as pointers into the intern pool.
static_assert(sizeof(Value) == 16);
static_assert(std::is_trivially_copyable_v<Value>);

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::Null().kind(), ValueKind::kNull);
  EXPECT_EQ(Value::Mark().kind(), ValueKind::kMark);
  EXPECT_EQ(Value::Int(7).kind(), ValueKind::kInt);
  EXPECT_EQ(Value::Double(1.5).kind(), ValueKind::kDouble);
  EXPECT_EQ(Value::String("db").kind(), ValueKind::kString);
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::String("db").AsString(), "db");
}

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_mark());
}

TEST(ValueTest, NullAndMarkAreDistinctSingletons) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Mark(), Value::Mark());
  EXPECT_NE(Value::Null(), Value::Mark());
  EXPECT_NE(Value::Null(), Value::Int(0));
  EXPECT_NE(Value::Mark(), Value::String(""));
}

TEST(ValueTest, EqualityWithinKind) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, NumericCrossKindComparison) {
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));
  EXPECT_LT(Value::Int(2), Value::Double(2.5));
  EXPECT_GT(Value::Double(3.5), Value::Int(3));
}

TEST(ValueTest, CrossKindNeverEqualForNonNumerics) {
  EXPECT_NE(Value::String("2"), Value::Int(2));
  EXPECT_NE(Value::Null(), Value::String(""));
}

TEST(ValueTest, TotalOrderIsStrictWeak) {
  std::set<Value> ordered = {Value::Null(), Value::Mark(), Value::Int(1),
                             Value::Int(2), Value::Double(1.5),
                             Value::String("a")};
  EXPECT_EQ(ordered.size(), 6u);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Int(2));
  EXPECT_TRUE(set.count(Value::Double(2.0)));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "∅");
  EXPECT_EQ(Value::Mark().ToString(), "⊥");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("db").ToString(), "'db'");
}

TEST(ValueTest, ComparisonOperators) {
  EXPECT_LE(Value::Int(1), Value::Int(1));
  EXPECT_GE(Value::Int(1), Value::Int(1));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_GT(Value::String("b"), Value::String("a"));
}

TEST(ValueInternTest, EqualTextsShareOneEntry) {
  const std::string text = "shared-identity";
  Value a = Value::String(text);
  Value b = Value::String(std::string(text));
  EXPECT_EQ(&a.AsString(), &b.AsString());
  EXPECT_EQ(a, b);
  EXPECT_NE(&a.AsString(), &Value::String("other-identity").AsString());
}

TEST(ValueInternTest, HashIsTheTextHash) {
  // Row-id index slot order and the deterministic counters depend on
  // these exact hash values.
  for (const char* text : {"", "alice", "lecture-17", "mathematics"}) {
    EXPECT_EQ(Value::String(text).Hash(), std::hash<std::string>{}(text))
        << text;
  }
}

TEST(ValueInternTest, OrderFollowsTextNotInterningOrder) {
  // Neither text is interned anywhere else in this binary, so "b" gets
  // the older entry.
  Value b = Value::String("interning-order-b");
  Value a = Value::String("interning-order-a");
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
  std::set<Value> ordered = {b, a, Value::String("interning-order-c")};
  EXPECT_EQ(ordered.begin()->AsString(), "interning-order-a");
  EXPECT_EQ(ordered.rbegin()->AsString(), "interning-order-c");
}

TEST(ValueInternTest, NonStringRulesAreUnchanged) {
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));
  EXPECT_EQ(Value::Double(2.0), Value::Int(2));
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
  EXPECT_NE(Value::Int(2), Value::Double(2.5));
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(nan, nan);
  EXPECT_FALSE(nan < nan);
  EXPECT_NE(nan, Value::Int(0));
  EXPECT_NE(Value::Null(), Value::Mark());
  EXPECT_NE(Value::Null(), Value::Int(0));
  EXPECT_NE(Value::Mark(), Value::Int(0));
  EXPECT_NE(Value::Null(), Value::String(""));
  EXPECT_NE(Value::Mark(), Value::String(""));
  EXPECT_LT(Value::Null(), Value::Mark());
  EXPECT_LT(Value::Mark(), Value::Int(-1000));
  EXPECT_LT(Value::Double(1e300), Value::String(""));
}

TEST(ValueInternTest, ConcurrentInterningGivesOneEntryPerText) {
  constexpr int kThreads = 8;
  constexpr int kTexts = 200;
  // Thread t interns texts t, t+1, ... so neighbouring threads overlap on
  // most of their texts and race on each one's first interning.
  std::vector<std::vector<const std::string*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      for (int i = 0; i < kTexts; ++i) {
        const int text = (t + i) % kTexts;
        seen[t].push_back(
            &Value::String("concurrent-" + std::to_string(text)).AsString());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTexts; ++i) {
      const int text = (t + i) % kTexts;
      EXPECT_EQ(seen[t][i], seen[0][text]) << "thread " << t << " text "
                                            << text;
      EXPECT_EQ(*seen[t][i], "concurrent-" + std::to_string(text));
    }
  }
}

TEST(ValueInternTest, PoolGrowsOnlyWithNewTexts) {
  const InternPoolStats before = GetInternPoolStats();
  Value::String("pool-growth-text");
  const InternPoolStats once = GetInternPoolStats();
  EXPECT_EQ(once.strings, before.strings + 1);
  EXPECT_EQ(once.bytes, before.bytes + std::string("pool-growth-text").size());
  EXPECT_EQ(once.calls, before.calls + 1);
  Value::String("pool-growth-text");
  const InternPoolStats twice = GetInternPoolStats();
  EXPECT_EQ(twice.strings, once.strings);
  EXPECT_EQ(twice.bytes, once.bytes);
  EXPECT_EQ(twice.calls, once.calls + 1);
}

}  // namespace
}  // namespace bryql
