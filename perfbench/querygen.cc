#include "querygen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "calculus/parser.h"
#include "workload/university.h"

namespace perfbench {

using bryql::Formula;
using bryql::FormulaKind;
using bryql::FormulaPtr;
using bryql::Term;

std::vector<std::string> SuiteTexts() {
  std::vector<std::string> texts;
  for (const bryql::NamedQuery& q : bryql::PaperQuerySuite()) {
    texts.push_back(q.text);
  }
  return texts;
}

SuiteOrder::SuiteOrder(uint64_t seed, size_t suite_size)
    : rng_(Mix(seed, 0x5017e)), cycle_(suite_size), position_(suite_size) {}

size_t SuiteOrder::Next() {
  if (position_ == cycle_.size()) {
    for (size_t i = 0; i < cycle_.size(); ++i) cycle_[i] = i;
    for (size_t i = cycle_.size(); i > 1; --i) {
      std::swap(cycle_[i - 1], cycle_[rng_.Uniform(i)]);
    }
    position_ = 0;
  }
  return cycle_[position_++];
}

namespace {

// Constants of each sort in the university schema, keyed by the predicate
// whose second column holds them: the distinct values MakeUniversity puts
// there.
const std::map<std::string, std::vector<std::string>>& SortsByPredicate() {
  static const auto* sorts = [] {
    const bryql::Database db = bryql::MakeUniversity({});
    auto* sorts = new std::map<std::string, std::vector<std::string>>;
    for (const char* predicate :
         {"lecture", "enrolled", "member", "speaks", "skill"}) {
      auto relation = db.Get(predicate);
      if (!relation.ok()) {
        throw std::runtime_error(std::string("no relation ") + predicate);
      }
      std::set<std::string> values;
      for (const bryql::Tuple& row : (*relation)->rows()) {
        values.insert(row.at(1).AsString());
      }
      (*sorts)[predicate].assign(values.begin(), values.end());
    }
    return sorts;
  }();
  return *sorts;
}

class Varier {
 public:
  Varier(Rng* rng, std::map<std::string, std::string> rename)
      : rng_(rng), rename_(std::move(rename)) {}

  FormulaPtr Vary(const FormulaPtr& f) {
    switch (f->kind()) {
      case FormulaKind::kAtom: {
        std::vector<Term> terms;
        const auto& sorts = SortsByPredicate();
        auto sort = sorts.find(f->predicate());
        for (size_t i = 0; i < f->terms().size(); ++i) {
          const Term& t = f->terms()[i];
          if (t.is_variable()) {
            terms.push_back(Term::Var(rename_.at(t.var())));
          } else if (i == 1 && sort != sorts.end() && rng_->Uniform(2) == 0) {
            const auto& values = sort->second;
            terms.push_back(Term::Const(bryql::Value::String(
                values[rng_->Uniform(values.size())])));
          } else {
            terms.push_back(t);
          }
        }
        return Formula::Atom(f->predicate(), std::move(terms));
      }
      case FormulaKind::kCompare: {
        auto rename = [&](const Term& t) {
          return t.is_variable() ? Term::Var(rename_.at(t.var())) : t;
        };
        return Formula::Compare(f->compare_op(), rename(f->terms()[0]),
                                rename(f->terms()[1]));
      }
      case FormulaKind::kNot:
        return Formula::Not(Vary(f->children()[0]));
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        std::vector<FormulaPtr> children;
        for (const FormulaPtr& c : f->children()) children.push_back(Vary(c));
        for (size_t i = children.size(); i > 1; --i) {
          std::swap(children[i - 1], children[rng_->Uniform(i)]);
        }
        return f->kind() == FormulaKind::kAnd ? Formula::And(children)
                                              : Formula::Or(children);
      }
      case FormulaKind::kImplies:
        return Formula::Implies(Vary(f->children()[0]),
                                Vary(f->children()[1]));
      case FormulaKind::kIff:
        return Formula::Iff(Vary(f->children()[0]), Vary(f->children()[1]));
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        std::vector<std::string> vars;
        for (const std::string& v : f->vars()) vars.push_back(rename_.at(v));
        FormulaPtr body = Vary(f->children()[0]);
        return f->kind() == FormulaKind::kExists
                   ? Formula::Exists(std::move(vars), body)
                   : Formula::Forall(std::move(vars), body);
      }
    }
    throw std::logic_error("unknown formula kind");
  }

 private:
  Rng* rng_;
  std::map<std::string, std::string> rename_;
};

std::string VariantOf(const bryql::Query& query, Rng* rng) {
  // Fresh names v<base+k>: letters plus digits never collide with the
  // schema's constants, and one base per text keeps texts distinct.
  std::set<std::string> names = query.formula->AllVariables();
  names.insert(query.targets.begin(), query.targets.end());
  const size_t base = rng->Uniform(1000000);
  std::map<std::string, std::string> rename;
  size_t k = 0;
  for (const std::string& name : names) {
    rename[name] = "v" + std::to_string(base + k++);
  }
  Varier varier(rng, rename);
  const std::string body = varier.Vary(query.formula)->ToString();
  if (query.closed()) return body;
  std::string text = "{ ";
  for (size_t i = 0; i < query.targets.size(); ++i) {
    if (i > 0) text += ", ";
    text += rename.at(query.targets[i]);
  }
  return text + " | " + body + " }";
}

}  // namespace

AdhocGenerator::AdhocGenerator(uint64_t seed) : seed_(seed) {
  std::vector<bryql::Query> templates;
  for (const std::string& text : SuiteTexts()) {
    auto parsed = bryql::ParseQuery(text);
    if (!parsed.ok()) throw std::runtime_error("suite query does not parse");
    templates.push_back(*parsed);
  }
  Rng rng(Mix(seed, 0xad40c));
  std::set<std::string> seen;
  while (pool_.size() < kPoolSize) {
    std::string text = VariantOf(templates[rng.Uniform(templates.size())],
                                 &rng);
    if (seen.insert(text).second) pool_.push_back(std::move(text));
  }
}

AdhocOp AdhocGenerator::Op(size_t i) const {
  AdhocOp op;
  if ((i + 1) % kWriteEvery == 0) {
    op.write = true;
    const auto& relations = WriteRelations();
    op.relation = relations[(i / kWriteEvery) % relations.size()];
    op.write_seed = Mix(seed_, i);
  } else {
    op.text = static_cast<size_t>(Mix(seed_ ^ 0x9ee1, i) % pool_.size());
  }
  return op;
}

const std::vector<std::string>& WriteRelations() {
  static const auto* relations =
      new std::vector<std::string>{"speaks", "skill", "makes", "member"};
  return *relations;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds, size_t suite_size) {
  Rng rng(Mix(seed, 0xa441));
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<Arrival> arrivals(n);
  for (Arrival& a : arrivals) {
    a.due_ns = static_cast<int64_t>(rng.Unit() * seconds * 1e9);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due_ns < b.due_ns;
            });
  // Queries in shuffled suite cycles, so every run offers the same mix.
  SuiteOrder order(seed, suite_size);
  for (Arrival& a : arrivals) a.query = order.Next();
  return arrivals;
}

}  // namespace perfbench
