#ifndef BRYQL_EXEC_EXECUTOR_H_
#define BRYQL_EXEC_EXECUTOR_H_

#include "algebra/expr.h"
#include "algebra/physical_plan.h"
#include "common/batch.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/stats.h"
#include "storage/database.h"

namespace bryql {

/// Physical execution knobs.
struct ExecOptions {
  /// Tuples per NextBatch transfer. 1 degrades to tuple-at-a-time data
  /// flow through the same operators — the configuration the differential
  /// suites use as the budget/trip-code oracle for the default size.
  size_t batch_size = kDefaultBatchSize;

  /// Let the lowering turn σ_pred(scan) into a ColumnarScan when the base
  /// relation has a column store and the cost model favours it. Off means
  /// the row path (TableScan + Filter / IndexScan) is always used — the
  /// differential suite's oracle configuration.
  bool use_columnar = true;
};

/// Evaluates algebra expressions over a database.
///
/// The Executor is a thin facade over two pieces:
///
///   * src/exec/lowering — compiles the logical Expr tree into a
///     PhysicalPlan (access paths, build side);
///   * src/exec/physical — batched Open/NextBatch/Close operators and the
///     PlanRuntime that instantiates and drives plans.
///
/// Evaluate/EvaluateBool are Lower (depth and arity checks, then
/// lowering), then ExecutePhysical/ExecutePhysicalBool. The operators implement the
/// paper's stance in §3.2 — unary operators and probe sides pipeline,
/// build sides and divisions materialize, and non-emptiness tests (closed
/// queries) pull at most one tuple and stop at the first witness.
///
/// Resource governance: every base-relation read and every intermediate
/// materialization is admitted through the ResourceGovernor, operator
/// opens poll the deadline/cancellation, and the inner loops of
/// join-family operators (products among them) tick it so plans that
/// filter everything out still honour the deadline. When the governor trips, the
/// evaluation returns the governor's Status (kResourceExhausted /
/// kDeadlineExceeded / kCancelled) instead of a partial answer.
class Executor {
 public:
  /// `db` must outlive the executor. `governor` is borrowed and may be
  /// null, which means ungoverned (no deadline, no budgets).
  explicit Executor(const Database* db, ExecOptions options = {},
                    ResourceGovernor* governor = nullptr)
      : db_(db), options_(options),
        governor_(governor != nullptr ? governor : &default_governor_) {}

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Fully evaluates `expr` to a relation. Counters accumulate into
  /// stats(); call ResetStats() between measurements.
  Result<Relation> Evaluate(const ExprPtr& expr);

  /// Evaluates an arity-0 (boolean) expression with short-circuiting:
  /// BoolAnd/BoolOr stop at the first falsifying/satisfying child and
  /// NonEmpty stops at the first witness tuple.
  Result<bool> EvaluateBool(const ExprPtr& expr);

  /// Lowers `expr` to a physical plan under this executor's options
  /// without running it (validates shape and depth like Evaluate). The
  /// plan is immutable and reusable — see LowerPlan.
  Result<PhysicalPlanPtr> Lower(const ExprPtr& expr) const;

  /// Runs an already-lowered plan. This is the prepared-query fast path:
  /// parse/rewrite/translate/lower all happened when the plan was made.
  Result<Relation> ExecutePhysical(const PhysicalPlanPtr& plan);

  /// Boolean counterpart of ExecutePhysical (plan arity must be 0).
  Result<bool> ExecutePhysicalBool(const PhysicalPlanPtr& plan);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  const Database* db_;
  ExecOptions options_;
  ExecStats stats_;
  /// Fallback when no governor is injected: unlimited, so standalone
  /// Executor users keep the pre-governor behaviour.
  ResourceGovernor default_governor_;
  ResourceGovernor* governor_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_EXECUTOR_H_
