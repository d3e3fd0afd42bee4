#ifndef BRYQL_EXEC_PHYSICAL_RUNTIME_H_
#define BRYQL_EXEC_PHYSICAL_RUNTIME_H_

#include <functional>

#include "algebra/physical_plan.h"
#include "common/batch.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/physical/operator.h"
#include "exec/stats.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace bryql {

/// Instantiates a lowered PhysicalNode tree into a fresh operator tree and
/// drives it. A PlanRuntime is per-run state: the same (cached) plan can
/// be handed to many runtimes, each with its own governor and stats sink.
/// Instantiation is root-first: the "exec.iterator.open" failpoint and a
/// plan-depth admission fire per node, "exec.scan.open" per base-table
/// scan, and every operator is wrapped in a timing decorator feeding
/// ExecStats::operator_stats.
///
/// A run is serial: one thread pulls the whole plan. Concurrency lives
/// between queries (QueryService runs several at once), not inside one.
class PlanRuntime {
 public:
  PlanRuntime(const Database* db, size_t batch_size, ExecStats* stats,
              ResourceGovernor* governor);

  /// Materializes the plan's full answer. A boolean root is RunBool's
  /// truth value as the 0-ary relation {()} or {} — nothing is admitted.
  Result<Relation> Run(const PhysicalPlanPtr& plan);

  /// Evaluates a boolean plan (kNonEmpty / kBoolNot / kBoolAnd / kBoolOr)
  /// with the paper's short-circuits; a non-boolean plan must have arity
  /// 0 and is true iff its answer is non-empty.
  Result<bool> RunBool(const PhysicalPlanPtr& plan);

 private:
  Result<PhysicalOpPtr> Build(const PhysicalPlanPtr& node, size_t depth);

  /// RunBool's value as the 0-ary truth relation {()} / {}.
  Result<Relation> RunTruth(const PhysicalPlanPtr& plan);

  /// The non-emptiness test of `child`: pulls a single capacity-1 batch
  /// (the paper's first-witness semantics).
  Result<bool> NonEmpty(const PhysicalPlanPtr& child);

  /// Instantiates and opens `node`, runs `pull` on it, and closes it.
  /// Fails with the governor's status if it tripped, even when `pull`
  /// returned OK.
  Status Drive(const PhysicalPlanPtr& node,
               const std::function<Status(PhysicalOperator*)>& pull);

  PhysicalContext ctx_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_RUNTIME_H_
