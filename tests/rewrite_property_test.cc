// Property tests for §2.4: the rewriting system is noetherian
// (Proposition 1) and confluent (Proposition 2), and every rule preserves
// logical equivalence — checked on randomly generated closed formulas by
// (a) applying redexes in randomized orders and comparing normal forms
// modulo ∧/∨ reordering, and (b) evaluating original vs canonical form
// with the independent nested-loop interpreter on random databases.

#include <gtest/gtest.h>

#include <random>

#include "calculus/analysis.h"
#include "nestedloop/nested_loop.h"
#include "rewrite/rewriter.h"
#include "storage/builder.h"
#include "random_data.h"

namespace bryql {
namespace {

class RewritePropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RewritePropertyTest, NormalizationTerminates) {
  // Proposition 1: the system is noetherian. max_steps is a hard error.
  FormulaGenerator gen(GetParam());
  for (int i = 0; i < 20; ++i) {
    FormulaPtr f = gen.Closed();
    auto norm = Normalize(f);
    ASSERT_TRUE(norm.ok()) << f->ToString() << ": " << norm.status();
    // The result is a genuine normal form: no redex remains.
    EXPECT_TRUE(FindApplications(norm->formula).empty())
        << norm->formula->ToString();
  }
}

TEST_P(RewritePropertyTest, RandomOrdersConverge) {
  // Proposition 2 (Church-Rosser): any reduction order reaches the same
  // normal form, up to the ∧/∨ child order (associativity/commutativity),
  // which different distribution orders permute.
  FormulaGenerator gen(GetParam() + 1000);
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    FormulaPtr f = gen.Closed();
    auto deterministic = Normalize(f);
    ASSERT_TRUE(deterministic.ok());
    for (int attempt = 0; attempt < 3; ++attempt) {
      FormulaPtr g = f;
      size_t steps = 0;
      while (steps++ < 20000) {
        std::vector<RuleApplication> apps = FindApplications(g);
        if (apps.empty()) break;
        const RuleApplication& app = apps[rng() % apps.size()];
        auto next = ApplyRule(g, app);
        ASSERT_TRUE(next.ok()) << app.ToString() << " on " << g->ToString();
        g = *next;
      }
      ASSERT_LT(steps, 20000u) << "runaway reduction for " << f->ToString();
      EXPECT_TRUE(Formula::Equal(SortAC(g), SortAC(deterministic->formula)))
          << "orders diverge for: " << f->ToString() << "\n  got:  "
          << g->ToString() << "\n  want: "
          << deterministic->formula->ToString();
    }
  }
}

TEST_P(RewritePropertyTest, NormalizationPreservesSemantics) {
  // Every rule preserves logical equivalence: the canonical form answers
  // exactly as the original under the independent Figure 1 interpreter.
  FormulaGenerator gen(GetParam() + 2000);
  int evaluated = 0;
  for (int i = 0; i < 20; ++i) {
    FormulaPtr f = gen.Closed();
    auto norm = Normalize(f);
    ASSERT_TRUE(norm.ok());
    for (unsigned db_seed = 0; db_seed < 3; ++db_seed) {
      Database db = FormulaDb(db_seed * 97 + GetParam());
      NestedLoopEvaluator eval(&db);
      auto original = eval.EvaluateClosed(f);
      auto canonical = eval.EvaluateClosed(norm->formula);
      if (!original.ok() || !canonical.ok()) continue;  // out-of-class
      ++evaluated;
      EXPECT_EQ(*original, *canonical)
          << "semantics changed for: " << f->ToString() << "\n  canonical: "
          << norm->formula->ToString();
    }
  }
  // The generator is designed so most samples are evaluable.
  EXPECT_GT(evaluated, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritePropertyTest,
                         ::testing::Range(0u, 16u));

}  // namespace
}  // namespace bryql
