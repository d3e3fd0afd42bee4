// Seeded random test data shared by the property and differential suites,
// and a brute-force reference for the join family. Every generator is
// deterministic in its seed, so each suite sees exactly the same inputs
// on every run.

#ifndef BRYQL_TESTS_RANDOM_DATA_H_
#define BRYQL_TESTS_RANDOM_DATA_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "calculus/formula.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace bryql {

/// `rows` tuples of `arity` integers drawn from [0, domain) by `rng`;
/// duplicates collapse, so the relation may hold fewer rows.
inline Relation RandomRelation(std::mt19937* rng, size_t arity, int domain,
                               int rows) {
  Relation rel(arity);
  for (int i = 0; i < rows; ++i) {
    std::vector<Value> values;
    for (size_t j = 0; j < arity; ++j) {
      values.push_back(Value::Int(static_cast<int64_t>((*rng)() % domain)));
    }
    rel.Insert(Tuple(std::move(values)));
  }
  return rel;
}

/// Deterministic pseudo-random binary relation: n tuples with keys drawn
/// from [0, key_range) so cross-relation overlap is partial and skewed.
inline Relation RandomPairs(size_t n, int64_t key_range, uint64_t seed) {
  Relation rel(2);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t i = 0; i < n; ++i) {
    rel.Insert(
        Tuple({Value::Int(static_cast<int64_t>(next()) % key_range),
               Value::Int(static_cast<int64_t>(next()) % 5)}));
  }
  return rel;
}

/// Random instances of the R(x,y), S(x,y,z), T(y,z), G(x,y,z) relations
/// that Proposition 4 is stated over (plus the unary T1 of case 5u).
inline Database Proposition4Db(unsigned seed, int domain, double density) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> value(0, domain - 1);
  std::bernoulli_distribution keep(density);
  Database db;
  auto fill = [&](const char* name, size_t arity, int rows) {
    Relation rel(arity);
    for (int i = 0; i < rows; ++i) {
      if (!keep(rng)) continue;
      std::vector<Value> values;
      for (size_t j = 0; j < arity; ++j) {
        values.push_back(Value::Int(value(rng)));
      }
      rel.Insert(Tuple(std::move(values)));
    }
    db.Put(name, std::move(rel));
  };
  fill("R", 2, 30);
  fill("S", 3, 40);
  fill("T", 2, 20);
  fill("T1", 1, 8);
  fill("G", 3, 40);
  return db;
}

/// Generates random closed formulas over unary p1/p2, binary r1/r2.
/// Quantifiers always introduce a range atom, so the results are formulas
/// with restricted quantifications (evaluable by the reference).
class FormulaGenerator {
 public:
  explicit FormulaGenerator(unsigned seed) : rng_(seed) {}

  FormulaPtr Closed() {
    var_counter_ = 0;
    return Quantified(3, {});
  }

 private:
  using Vars = std::vector<std::string>;

  size_t Pick(size_t n) { return rng_() % n; }
  bool Coin(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }

  std::string FreshVar() { return "v" + std::to_string(var_counter_++); }

  Term RandomTerm(const Vars& scope) {
    if (!scope.empty() && Coin(0.8)) {
      return Term::Var(scope[Pick(scope.size())]);
    }
    static const char* constants[] = {"a", "b", "c"};
    return Term::Const(Value::String(constants[Pick(3)]));
  }

  FormulaPtr RandomAtom(const Vars& scope) {
    if (Coin(0.5)) {
      const char* pred = Coin(0.5) ? "p1" : "p2";
      return Formula::Atom(pred, {RandomTerm(scope)});
    }
    const char* pred = Coin(0.5) ? "r1" : "r2";
    return Formula::Atom(pred, {RandomTerm(scope), RandomTerm(scope)});
  }

  /// A quantified subformula whose variable has a range.
  FormulaPtr Quantified(int depth, const Vars& scope) {
    std::string v = FreshVar();
    Vars inner = scope;
    inner.push_back(v);
    FormulaPtr range =
        Formula::Atom(Coin(0.5) ? "p1" : "p2", {Term::Var(v)});
    FormulaPtr body = Body(depth - 1, inner);
    if (Coin(0.5)) {
      return Formula::Exists({v}, Formula::And(range, body));
    }
    return Formula::Forall({v}, Formula::Implies(range, body));
  }

  /// A boolean body over the variables in scope.
  FormulaPtr Body(int depth, const Vars& scope) {
    if (depth <= 0 || Coin(0.3)) {
      FormulaPtr atom = RandomAtom(scope);
      return Coin(0.3) ? Formula::Not(atom) : atom;
    }
    switch (Pick(6)) {
      case 0:
        return Formula::And(Body(depth - 1, scope), Body(depth - 1, scope));
      case 1:
        return Formula::Or(Body(depth - 1, scope), Body(depth - 1, scope));
      case 2:
        return Formula::Not(Body(depth - 1, scope));
      case 3:
        return Quantified(depth, scope);
      case 4:
        return Formula::Iff(Body(depth - 1, scope), Body(depth - 1, scope));
      default:
        return Formula::Implies(Body(depth - 1, scope),
                                Body(depth - 1, scope));
    }
  }

  std::mt19937 rng_;
  size_t var_counter_ = 0;
};

/// A random database over FormulaGenerator's vocabulary: unary p1/p2 and
/// binary r1/r2 over the string domain {a, b, c, d}.
inline Database FormulaDb(unsigned seed) {
  std::mt19937 rng(seed);
  const char* domain[] = {"a", "b", "c", "d"};
  Database db;
  for (const char* name : {"p1", "p2"}) {
    Relation rel(1);
    for (int i = 0; i < 4; ++i) {
      if (rng() % 2) rel.Insert(Tuple({Value::String(domain[i])}));
    }
    db.Put(name, std::move(rel));
  }
  for (const char* name : {"r1", "r2"}) {
    Relation rel(2);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (rng() % 3 == 0) {
          rel.Insert(
              Tuple({Value::String(domain[i]), Value::String(domain[j])}));
        }
      }
    }
    db.Put(name, std::move(rel));
  }
  return db;
}

/// Brute-force reference for one join-family node, written from the
/// definitions rather than from any engine: nested loops over the rows of
/// `left` and `right`, keys compared value by value, no hashing. `expr`
/// supplies the kind (join, semi-, complement- (Definition 6), outer or
/// constrained outer-join (Definition 7), difference, intersection) and
/// its keys, residual or constraint; its children are not evaluated.
inline Relation BruteForceJoin(const Expr& expr, const Relation& left,
                               const Relation& right) {
  auto partners = [&expr](const Tuple& l, const Tuple& r) {
    for (const JoinKey& key : expr.keys()) {
      if (l.at(key.left) != r.at(key.right)) return false;
    }
    return true;
  };
  auto has_partner = [&](const Tuple& l) {
    for (const Tuple& r : right.rows()) {
      if (partners(l, r)) return true;
    }
    return false;
  };
  auto contains = [&right](const Tuple& l) {
    for (const Tuple& r : right.rows()) {
      if (l == r) return true;
    }
    return false;
  };
  auto padded = [&right](Tuple t) {
    for (size_t i = 0; i < right.arity(); ++i) t.Append(Value::Null());
    return t;
  };
  const PredicatePtr& predicate = expr.predicate();
  auto holds = [&predicate](const Tuple& t) {
    return predicate == nullptr || predicate->Eval(t, nullptr);
  };

  switch (expr.kind()) {
    case ExprKind::kJoin: {
      Relation out(left.arity() + right.arity());
      for (const Tuple& l : left.rows()) {
        for (const Tuple& r : right.rows()) {
          if (!partners(l, r)) continue;
          Tuple joined = l.Concat(r);
          if (holds(joined)) out.Insert(std::move(joined));
        }
      }
      return out;
    }
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin: {
      const bool semi = expr.kind() == ExprKind::kSemiJoin;
      Relation out(left.arity());
      for (const Tuple& l : left.rows()) {
        if (has_partner(l) == semi) out.Insert(l);
      }
      return out;
    }
    case ExprKind::kOuterJoin: {
      Relation out(left.arity() + right.arity());
      for (const Tuple& l : left.rows()) {
        bool matched = false;
        if (holds(l)) {
          for (const Tuple& r : right.rows()) {
            if (!partners(l, r)) continue;
            out.Insert(l.Concat(r));
            matched = true;
          }
        }
        if (!matched) out.Insert(padded(l));
      }
      return out;
    }
    case ExprKind::kMarkJoin: {
      Relation out(left.arity() + 1);
      for (const Tuple& l : left.rows()) {
        Tuple marked = l;
        marked.Append(holds(l) && has_partner(l) ? Value::Mark()
                                                 : Value::Null());
        out.Insert(std::move(marked));
      }
      return out;
    }
    case ExprKind::kDifference:
    case ExprKind::kIntersect: {
      const bool intersect = expr.kind() == ExprKind::kIntersect;
      Relation out(left.arity());
      for (const Tuple& l : left.rows()) {
        if (contains(l) == intersect) out.Insert(l);
      }
      return out;
    }
    default:  // not a member of the join family
      return Relation(0);
  }
}

}  // namespace bryql

#endif  // BRYQL_TESTS_RANDOM_DATA_H_
