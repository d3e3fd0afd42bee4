#include "core/query_processor.h"

#include "algebra/simplifier.h"
#include "calculus/analysis.h"
#include "calculus/range_analysis.h"
#include "nestedloop/nested_loop.h"
#include "rewrite/domain_closure.h"
#include "translate/classical_translator.h"

namespace bryql {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBry:
      return "bry";
    case Strategy::kBryDivision:
      return "bry-division";
    case Strategy::kQuelCounting:
      return "quel-counting";
    case Strategy::kBryUnionFilters:
      return "bry-union-filters";
    case Strategy::kClassical:
      return "classical";
    case Strategy::kNestedLoop:
      return "nested-loop";
  }
  return "?";
}

std::string Answer::ToString() const {
  if (closed) return truth ? "true" : "false";
  return relation.ToString();
}

namespace {

TranslateOptions OptionsFor(Strategy strategy) {
  TranslateOptions options;
  if (strategy == Strategy::kBryDivision) {
    options.universal = TranslateOptions::Universal::kDivision;
  }
  if (strategy == Strategy::kQuelCounting) {
    options.universal = TranslateOptions::Universal::kCountComparison;
  }
  if (strategy == Strategy::kBryUnionFilters) {
    options.disjunction = TranslateOptions::Disjunction::kUnionOfFilters;
  }
  return options;
}

ParseLimits ParseLimitsFor(const QueryOptions& options) {
  ParseLimits limits;
  limits.max_bytes = options.max_query_bytes;
  limits.max_depth = options.max_formula_depth;
  return limits;
}

/// An Execution carrying `prepared`'s artifacts and no answer yet.
Execution PlannedExecution(const PreparedQuery& prepared) {
  Execution exec;
  exec.query = prepared.query;
  exec.canonical = prepared.canonical;
  exec.plan = prepared.plan;
  exec.physical = prepared.physical;
  exec.rewrite_steps = prepared.rewrite_steps;
  return exec;
}

}  // namespace

Result<PreparedQuery> QueryProcessor::BuildPlan(
    const Query& raw_query, Strategy strategy, const QueryOptions& options,
    ResourceGovernor* governor) const {
  // Depth is measured iteratively before any recursive pass (view
  // expansion, normalization, translation) walks the formula, so a
  // pathologically deep input is rejected instead of overflowing the
  // stack inside one of those passes.
  if (options.max_formula_depth != 0 &&
      FormulaDepth(raw_query.formula) > options.max_formula_depth) {
    return Status::ResourceExhausted(
        "formula depth " + std::to_string(FormulaDepth(raw_query.formula)) +
        " exceeds max_formula_depth (" +
        std::to_string(options.max_formula_depth) + ")");
  }
  Query query = raw_query;
  if (views_ != nullptr) {
    BRYQL_ASSIGN_OR_RETURN(query, views_->Expand(query));
    if (options.max_formula_depth != 0 &&
        FormulaDepth(query.formula) > options.max_formula_depth) {
      return Status::ResourceExhausted(
          "formula depth after view expansion exceeds max_formula_depth (" +
          std::to_string(options.max_formula_depth) + ")");
    }
  }
  PreparedQuery prepared;
  prepared.strategy = strategy;
  prepared.query = query;
  if (strategy == Strategy::kClassical) {
    // The conventional methods reduce the raw query directly (prenex
    // form); no canonical form phase.
    CountPhase(&PrepareCounters::translations);
    ClassicalTranslator classical(db_);
    if (query.closed()) {
      BRYQL_ASSIGN_OR_RETURN(prepared.plan,
                             classical.TranslateClosed(query.formula));
    } else {
      BRYQL_ASSIGN_OR_RETURN(TranslatedQuery t,
                             classical.TranslateOpen(query));
      prepared.plan = t.expr;
    }
    return prepared;
  }
  RewriteOptions rewrite_options;
  rewrite_options.max_steps = options.max_rewrite_steps;
  rewrite_options.governor = governor;
  CountPhase(&PrepareCounters::normalizations);
  BRYQL_ASSIGN_OR_RETURN(NormalizeResult norm,
                         NormalizeQuery(query, rewrite_options));
  prepared.canonical = norm.formula;
  prepared.rewrite_steps = norm.steps();
  std::set<std::string> targets(query.targets.begin(), query.targets.end());
  if (domain_closure_ &&
      !CheckRestrictedQuery(prepared.canonical, targets).ok()) {
    BRYQL_ASSIGN_OR_RETURN(prepared.canonical,
                           ApplyDomainClosure(prepared.canonical, targets));
  }
  if (strategy == Strategy::kNestedLoop) {
    // Figure 1 interprets the calculus directly; it runs on the canonical
    // form so all strategies answer the same canonical question (the
    // interpreter handles ∀ natively, so this is not required, but it
    // keeps the comparison apples-to-apples on the same formula).
    return prepared;
  }
  CountPhase(&PrepareCounters::translations);
  Translator translator(db_, OptionsFor(strategy));
  if (query.closed()) {
    BRYQL_ASSIGN_OR_RETURN(prepared.plan,
                           translator.TranslateClosed(prepared.canonical));
  } else {
    Query canonical_query{query.targets, prepared.canonical};
    BRYQL_ASSIGN_OR_RETURN(TranslatedQuery t,
                           translator.TranslateOpen(canonical_query));
    prepared.plan = t.expr;
  }
  // Plan cleanup: drop identity projections, merge selections, fold
  // statically empty inputs. Never changes results.
  BRYQL_ASSIGN_OR_RETURN(prepared.plan, SimplifyPlan(prepared.plan, *db_));
  return prepared;
}

std::string QueryProcessor::CacheKey(const std::string& text,
                                     Strategy strategy,
                                     const QueryOptions& options) const {
  // Everything that shapes the prepared artifacts must be in the key:
  // the strategy and translation-affecting processor state, the lowering
  // knobs, and the structural limits (a plan prepared under lax limits
  // must not satisfy a stricter run). Batch size is deliberately absent
  // — it picks how a plan is *driven*, not what it is, and Execute
  // consults it directly. Views are handled by
  // invalidation (SetViews clears the cache).
  std::string key = StrategyName(strategy);
  key += '\x1f';
  key += domain_closure_ ? '1' : '0';
  key += '\x1f';
  key += std::to_string(options.max_formula_depth);
  key += ':';
  key += std::to_string(options.max_rewrite_steps);
  key += ':';
  key += std::to_string(options.max_query_bytes);
  key += '\x1f';
  key += text;
  return key;
}

Result<PreparedQueryPtr> QueryProcessor::PrepareInternal(
    const std::string& text, Strategy strategy, const QueryOptions& options,
    ResourceGovernor* governor, bool* cache_hit) const {
  // A cache-bypass run (degradation rung: "the cached plan may be the
  // problem") prepares cold and leaves the cache untouched either way.
  const bool use_cache = !options.bypass_plan_cache;
  const std::string key =
      use_cache ? CacheKey(text, strategy, options) : std::string();
  if (use_cache) {
    if (PreparedQueryPtr cached = cache_.Get(key)) {
      if (cached->db_version == db_->version()) {
        *cache_hit = true;
        return cached;
      }
      // The catalog moved under the cached plan (relation replaced, index
      // built): arities and access paths may have changed, so re-prepare
      // from the text. The refreshed entry replaces the stale one below.
    }
  }
  *cache_hit = false;
  CountPhase(&PrepareCounters::parses);
  BRYQL_ASSIGN_OR_RETURN(Query query,
                         ParseQuery(text, ParseLimitsFor(options)));
  BRYQL_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         PrepareParsed(query, strategy, options, governor));
  prepared.text = text;
  auto shared = std::make_shared<const PreparedQuery>(std::move(prepared));
  if (use_cache) cache_.Put(key, shared);
  return shared;
}

Result<PreparedQuery> QueryProcessor::PrepareParsed(
    const Query& query, Strategy strategy, const QueryOptions& options,
    ResourceGovernor* governor) const {
  BRYQL_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         BuildPlan(query, strategy, options, governor));
  if (prepared.plan != nullptr) {
    CountPhase(&PrepareCounters::lowerings);
    Executor executor(db_, exec_options_, governor);
    BRYQL_ASSIGN_OR_RETURN(prepared.physical, executor.Lower(prepared.plan));
  }
  prepared.db_version = db_->version();
  return prepared;
}

Result<Execution> QueryProcessor::ExecuteInternal(
    const PreparedQuery& prepared, ResourceGovernor* governor) const {
  Execution exec = PlannedExecution(prepared);
  if (prepared.strategy == Strategy::kNestedLoop) {
    NestedLoopEvaluator eval(db_, governor);
    if (prepared.query.closed()) {
      BRYQL_ASSIGN_OR_RETURN(bool truth,
                             eval.EvaluateClosed(prepared.canonical));
      exec.answer.closed = true;
      exec.answer.truth = truth;
    } else {
      Query canonical_query{prepared.query.targets, prepared.canonical};
      BRYQL_ASSIGN_OR_RETURN(Relation rel,
                             eval.EvaluateOpen(canonical_query));
      exec.answer.relation = std::move(rel);
    }
    exec.stats = eval.stats();
    return exec;
  }
  Executor executor(db_, exec_options_, governor);
  // The prepared physical plan is the fast path; fall back to lowering
  // from the logical plan when the catalog moved since preparation.
  const bool use_physical =
      prepared.physical != nullptr && prepared.db_version == db_->version();
  if (prepared.query.closed()) {
    bool truth = false;
    if (use_physical) {
      BRYQL_ASSIGN_OR_RETURN(truth,
                             executor.ExecutePhysicalBool(prepared.physical));
    } else {
      BRYQL_ASSIGN_OR_RETURN(truth, executor.EvaluateBool(prepared.plan));
    }
    exec.answer.closed = true;
    exec.answer.truth = truth;
  } else {
    Relation rel{0};
    if (use_physical) {
      BRYQL_ASSIGN_OR_RETURN(rel, executor.ExecutePhysical(prepared.physical));
    } else {
      BRYQL_ASSIGN_OR_RETURN(rel, executor.Evaluate(prepared.plan));
    }
    exec.answer.relation = std::move(rel);
  }
  exec.stats = executor.stats();
  return exec;
}

Result<Execution> QueryProcessor::RunQuery(const Query& query,
                                           Strategy strategy,
                                           const QueryOptions& options) const {
  // One governor per run: the deadline clock starts here and every phase
  // (normalize, translate, lower, evaluate) draws down the same budgets.
  ResourceGovernor governor(options);
  BRYQL_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         PrepareParsed(query, strategy, options, &governor));
  return ExecuteInternal(prepared, &governor);
}

Result<Execution> QueryProcessor::Run(const std::string& text,
                                      Strategy strategy,
                                      const QueryOptions& options) const {
  // One governor spans preparation (on a cache miss) and execution, so
  // the deadline and budgets cover the whole run exactly as they did
  // before the prepared fast path existed.
  ResourceGovernor governor(options);
  bool cache_hit = false;
  BRYQL_ASSIGN_OR_RETURN(
      PreparedQueryPtr prepared,
      PrepareInternal(text, strategy, options, &governor, &cache_hit));
  BRYQL_ASSIGN_OR_RETURN(Execution exec,
                         ExecuteInternal(*prepared, &governor));
  exec.plan_cache_hit = cache_hit;
  return exec;
}

Result<PreparedQueryPtr> QueryProcessor::Prepare(
    const std::string& text, Strategy strategy,
    const QueryOptions& options) const {
  ResourceGovernor governor(options);
  bool cache_hit = false;
  return PrepareInternal(text, strategy, options, &governor, &cache_hit);
}

Result<Execution> QueryProcessor::Execute(const PreparedQueryPtr& prepared,
                                          const QueryOptions& options) const {
  if (prepared == nullptr) {
    return Status::InvalidArgument("Execute on a null PreparedQuery");
  }
  ResourceGovernor governor(options);
  return ExecuteInternal(*prepared, &governor);
}

Result<Execution> QueryProcessor::Explain(const std::string& text,
                                          Strategy strategy,
                                          const QueryOptions& options) const {
  BRYQL_ASSIGN_OR_RETURN(Query query,
                         ParseQuery(text, ParseLimitsFor(options)));
  ResourceGovernor governor(options);
  // EXPLAIN shows the physical plan too — what will actually run.
  BRYQL_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         PrepareParsed(query, strategy, options, &governor));
  return PlannedExecution(prepared);
}

}  // namespace bryql
