// Operator-level property tests on randomized relations: Proposition 3
// (the complement-join generalizes set difference and partitions its left
// operand), the mark-join/semi-join/complement-join consistency triangle,
// outer-join preservation, and division expressed through complement-joins
// — the identities §3 builds the translation on.

#include <gtest/gtest.h>

#include <random>

#include "exec/executor.h"
#include "storage/builder.h"
#include "random_data.h"

namespace bryql {
namespace {

class AlgebraPropertyTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    std::mt19937 rng(GetParam());
    db_.Put("P", RandomRelation(&rng, 2, 8, 30));
    db_.Put("Q", RandomRelation(&rng, 2, 8, 25));
    db_.Put("U1", RandomRelation(&rng, 1, 8, 10));
    db_.Put("D", RandomRelation(&rng, 2, 6, 40));
  }

  Relation Eval(const ExprPtr& e) {
    Executor exec(&db_);
    auto r = exec.Evaluate(e);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : Relation(0);
  }

  Database db_;
};

TEST_P(AlgebraPropertyTest, Proposition3Partition) {
  // P = π(P ⋈ Q) ∪ (P ⊼ Q) and ∅ = π(P ⋈ Q) ∩ (P ⊼ Q), on key $0=$0.
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  Relation semi = Eval(Expr::SemiJoin(p, q, {{0, 0}}));
  Relation anti = Eval(Expr::AntiJoin(p, q, {{0, 0}}));
  Relation both = Eval(Expr::Union(Expr::SemiJoin(p, q, {{0, 0}}),
                                   Expr::AntiJoin(p, q, {{0, 0}})));
  EXPECT_EQ(both, Eval(p));
  Relation overlap = Eval(Expr::Intersect(
      Expr::SemiJoin(p, q, {{0, 0}}), Expr::AntiJoin(p, q, {{0, 0}})));
  EXPECT_TRUE(overlap.empty());
  EXPECT_EQ(semi.size() + anti.size(), Eval(p).size());
}

TEST_P(AlgebraPropertyTest, Proposition3DifferenceIsFullKeyAntiJoin) {
  // p = q arities: P − Q = P ⊼_{1=1 ∧ ... ∧ p=q} Q.
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  Relation diff = Eval(Expr::Difference(p, q));
  Relation anti = Eval(Expr::AntiJoin(p, q, {{0, 0}, {1, 1}}));
  EXPECT_EQ(diff, anti);
}

TEST_P(AlgebraPropertyTest, SemiJoinIsProjectedJoin) {
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  Relation semi = Eval(Expr::SemiJoin(p, q, {{0, 0}}));
  Relation projected = Eval(Expr::Project(Expr::Join(p, q, {{0, 0}}),
                                          {0, 1}));
  EXPECT_EQ(semi, projected);
}

TEST_P(AlgebraPropertyTest, MarkJoinConsistentWithSemiAndAnti) {
  // σ_{mark≠∅} of the mark join = semi-join; σ_{mark=∅} = complement-join.
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  ExprPtr mark = Expr::MarkJoin(p, q, {{0, 0}});
  Relation found = Eval(Expr::Project(
      Expr::Select(mark, Predicate::IsNotNull(2)), {0, 1}));
  Relation missing = Eval(Expr::Project(
      Expr::Select(mark, Predicate::IsNull(2)), {0, 1}));
  EXPECT_EQ(found, Eval(Expr::SemiJoin(p, q, {{0, 0}})));
  EXPECT_EQ(missing, Eval(Expr::AntiJoin(p, q, {{0, 0}})));
}

TEST_P(AlgebraPropertyTest, OuterJoinPreservesLeft) {
  // "The outer-join preserves its left operand: P = π1(R1)."
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  Relation preserved =
      Eval(Expr::Project(Expr::OuterJoin(p, q, {{0, 0}}), {0, 1}));
  EXPECT_EQ(preserved, Eval(p));
}

TEST_P(AlgebraPropertyTest, ConstrainedMarkJoinOnlySkipsProbes) {
  // A constraint changes which tuples get probed, never which tuples
  // appear: the left side stays intact.
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  ExprPtr constrained = Expr::MarkJoin(
      p, q, {{0, 0}}, Predicate::ColVal(CompareOp::kLt, 1, Value::Int(4)));
  Relation rel = Eval(constrained);
  EXPECT_EQ(Eval(Expr::Project(Expr::Literal(rel), {0, 1})), Eval(p));
  // Rows failing the constraint always carry ∅.
  for (const Tuple& t : rel.rows()) {
    if (t.at(1) >= Value::Int(4)) {
      EXPECT_TRUE(t.at(2).is_null()) << t.ToString();
    }
  }
}

TEST_P(AlgebraPropertyTest, DivisionViaDoubleComplementJoin) {
  // D ÷ U1 = π0(D) ⊼ π0((π0(D) × U1) ⊼_{all} D)
  // — the "rewritten in terms of difference or complement-join" remark.
  ExprPtr d = Expr::Scan("D");
  ExprPtr u = Expr::Scan("U1");
  Relation divided = Eval(Expr::Division(d, u));
  ExprPtr candidates = Expr::Project(d, {0});
  ExprPtr all_pairs = Expr::Product(candidates, u);
  ExprPtr missing = Expr::AntiJoin(all_pairs, d, {{0, 0}, {1, 1}});
  Relation rewritten = Eval(
      Expr::AntiJoin(candidates, Expr::Project(missing, {0}), {{0, 0}}));
  EXPECT_EQ(divided, rewritten);
}

TEST_P(AlgebraPropertyTest, GroupDivisionMatchesReferenceLoop) {
  // Reference: per (keep, group), check all group values are covered.
  auto d_rel = db_.Get("D");
  auto q_rel = db_.Get("Q");
  ASSERT_TRUE(d_rel.ok());
  ASSERT_TRUE(q_rel.ok());
  // Dividend: D as [keep=$0, group=$0 of pairs...]; build D3 = P (2 cols)
  // extended: use Q as divisor [group, value], and build dividend rows
  // (k, g, v) from the product of U1 and Q.
  Relation dividend(3);
  for (const Tuple& k : (*db_.Get("U1"))->rows()) {
    for (const Tuple& gv : (*q_rel)->rows()) {
      // Keep roughly half of the combinations, deterministically.
      size_t h = HashCombine(k.Hash(), gv.Hash());
      if (h % 2 == 0) dividend.Insert(k.Concat(gv));
    }
  }
  db_.Put("D3", dividend);
  Relation got = Eval(Expr::GroupDivision(Expr::Scan("D3"),
                                          Expr::Scan("Q"), 1));
  // Reference computation.
  Relation expected(2);
  for (const Tuple& k : (*db_.Get("U1"))->rows()) {
    std::set<Value> groups;
    for (const Tuple& gv : (*q_rel)->rows()) groups.insert(gv.at(0));
    for (const Value& g : groups) {
      bool all = true;
      bool any = false;
      for (const Tuple& gv : (*q_rel)->rows()) {
        if (gv.at(0) != g) continue;
        any = true;
        Tuple needed = k.Concat(gv);
        if (!dividend.Contains(needed)) {
          all = false;
          break;
        }
      }
      if (any && all) expected.Insert(k.Concat(Tuple({g})));
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_P(AlgebraPropertyTest, SetAlgebraIdentities) {
  ExprPtr p = Expr::Scan("P");
  ExprPtr q = Expr::Scan("Q");
  // P ∖ (P ∖ Q) = P ∩ Q.
  EXPECT_EQ(Eval(Expr::Difference(p, Expr::Difference(p, q))),
            Eval(Expr::Intersect(p, q)));
  // (P ∪ Q) ∖ Q ⊆ P; P ∖ Q disjoint from Q.
  Relation diff = Eval(Expr::Difference(Expr::Union(p, q), q));
  Relation p_rel = Eval(p);
  for (const Tuple& t : diff.rows()) {
    EXPECT_TRUE(p_rel.Contains(t));
  }
  EXPECT_TRUE(Eval(Expr::Intersect(Expr::Difference(p, q), q)).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Range(0u, 10u));

}  // namespace
}  // namespace bryql
