#ifndef BRYQL_EXEC_PHYSICAL_RUNTIME_H_
#define BRYQL_EXEC_PHYSICAL_RUNTIME_H_

#include <functional>
#include <memory>
#include <vector>

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
/// `workers` ≤ 1 runs serially. A larger degree (capped at kMaxWorkers)
/// makes the runtime the coordinator of a morsel-driven run: it
/// replicates the plan's spine — the streaming path from the root through
/// filters, projects, unions and join probe inputs down to the scans —
/// once per worker, and computes everything off the spine exactly once
/// into its ParallelShared registry: join builds (products' too) are
/// drained, themselves in parallel, into SharedJoinBuilds, blocking
/// operators are computed serially, boolean subtrees go through RunBool.
/// Each worker is a degree-1 PlanRuntime whose `shared` is that registry
/// (see PhysicalContext::shared).
///
/// Budget/status parity across degrees is a design invariant: morsels
/// cover each row once, shared builds and seen-sets admit each
/// materialization once, every admitted drain is the one Drain loop, and
/// worker governor shards reconcile real counts into a SharedBudget. The
/// exception is the first-witness race under a *finite tuple budget*,
/// where "witness found" vs. "budget tripped" depends on scheduling; that
/// combination runs serially so closed queries stay deterministic.
class PlanRuntime {
 public:
  /// `shared` is set only on the per-worker runtimes of a coordinator.
  PlanRuntime(const Database* db, size_t batch_size, ExecStats* stats,
              ResourceGovernor* governor, size_t workers = 1,
              const ParallelShared* shared = nullptr);
  ~PlanRuntime();

  /// Materializes the plan's full answer. A boolean root is RunBool's
  /// truth value as the 0-ary relation {()} or {} — nothing is admitted.
  Result<Relation> Run(const PhysicalPlanPtr& plan);

  /// Evaluates a boolean plan (kNonEmpty / kBoolNot / kBoolAnd / kBoolOr)
  /// with the paper's short-circuits; a non-boolean plan must have arity
  /// 0 and is true iff its answer is non-empty.
  Result<bool> RunBool(const PhysicalPlanPtr& plan);

 private:
  using PhaseConsumer = std::function<Status(
      size_t, PhysicalOperator*, PhysicalContext&, SharedBudget*)>;

  Result<PhysicalOpPtr> Build(const PhysicalPlanPtr& node, size_t depth);

  /// RunBool's value as the 0-ary truth relation {()} / {}.
  Result<Relation> RunTruth(const PhysicalPlanPtr& plan);

  /// The non-emptiness test of `child`: pulls a single capacity-1 batch
  /// (the paper's first-witness semantics), or races every worker to the
  /// first witness when this runtime is a coordinator and no tuple budget
  /// is finite.
  Result<bool> NonEmpty(const PhysicalPlanPtr& child);

  /// Instantiates and opens `node`, runs `pull` on it, and closes it.
  /// Fails with the governor's status if it tripped, even when `pull`
  /// returned OK.
  Status Drive(const PhysicalPlanPtr& node,
               const std::function<Status(PhysicalOperator*)>& pull);

  /// A serial runtime sharing this run's stats and governor.
  PlanRuntime Serial() const {
    return PlanRuntime(ctx_.db, ctx_.batch_size, ctx_.stats, ctx_.governor);
  }

  // The coordinator's side (parallel.cc).

  /// One fork/join phase: every worker instantiates `spine_root` and runs
  /// `consume(worker, op, ctx, budget)`; worker stats and the phase's
  /// SharedBudget are absorbed into this run's before returning.
  Status RunPhase(const PhysicalPlanPtr& spine_root,
                  const PhaseConsumer& consume);

  /// Registers the shared state of the spine under `node`.
  Status PrepareSpine(const PhysicalPlanPtr& node);

  /// Drains `node`'s build side (in parallel) into a SharedJoinBuild.
  Status BuildJoinShared(const PhysicalPlanPtr& node);

  /// Shares `rows` as `node`'s result, morsel-partitioned.
  void ShareRows(const PhysicalNode* node, std::vector<Tuple> rows);

  /// Prepares the spine, then merges the workers' partitions.
  Result<Relation> RunParallel(const PhysicalPlanPtr& plan);

  /// The first-witness race over `child`'s spine.
  Result<bool> WitnessRace(const PhysicalPlanPtr& child);

  PhysicalContext ctx_;
  size_t workers_;
  /// The coordinator's registry (null at degree 1).
  std::unique_ptr<ParallelShared> registry_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_RUNTIME_H_
