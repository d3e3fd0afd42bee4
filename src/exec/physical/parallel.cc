// The coordinator's side of PlanRuntime: spine preparation, shared join
// builds, fork/join phases, the final merge and the first-witness race.
// Only runtimes of degree > 1 reach these members.

#include "exec/physical/parallel.h"

#include <atomic>

#include "common/thread_pool.h"
#include "exec/physical/runtime.h"

namespace bryql {

Status PlanRuntime::RunPhase(const PhysicalPlanPtr& spine_root,
                             const PhaseConsumer& consume) {
  SharedBudget budget(*ctx_.governor);
  std::vector<ExecStats> worker_stats(workers_);
  RunOnWorkers(ThreadPool::Shared(), workers_, [&](size_t w) {
    ResourceGovernor shard(&budget);
    PlanRuntime worker(ctx_.db, ctx_.batch_size, &worker_stats[w], &shard,
                       /*workers=*/1, registry_.get());
    Status status = [&]() -> Status {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr op, worker.Build(spine_root, 0));
      BRYQL_RETURN_NOT_OK(op->Open());
      Status consumed = consume(w, op.get(), worker.ctx_, &budget);
      op->Close();
      return consumed;
    }();
    // The final chunk of this worker's counts, and the budget check a
    // mid-chunk stop would otherwise have skipped.
    Status reconciled = shard.Reconcile();
    if (status.ok()) status = reconciled;
    if (!status.ok() && !shard.early_stopped()) budget.Trip(status);
  });
  // Per-worker stats merge: totals add up; operator_stats concatenates,
  // so a parallel report lists each spine operator once per worker.
  for (const ExecStats& ws : worker_stats) ctx_.stats->Add(ws);
  ctx_.governor->AbsorbShared(budget);
  return ctx_.governor->status();
}

void PlanRuntime::ShareRows(const PhysicalNode* node,
                            std::vector<Tuple> rows) {
  registry_->morsels.emplace(node, std::make_unique<MorselSource>(rows.size()));
  registry_->rows.emplace(
      node, std::make_unique<std::vector<Tuple>>(std::move(rows)));
}

Status PlanRuntime::BuildJoinShared(const PhysicalPlanPtr& node) {
  const PhysicalPlanPtr& build_child =
      node->build_left ? node->children[0] : node->children[1];
  BRYQL_RETURN_NOT_OK(PrepareSpine(build_child));
  const bool table_mode = node->variant == JoinVariant::kInner ||
                          node->variant == JoinVariant::kLeftOuter;
  std::vector<size_t> build_columns;
  for (const JoinKey& k : node->keys) {
    build_columns.push_back(node->build_left ? k.left : k.right);
  }
  auto owned =
      std::make_unique<SharedJoinBuild>(std::move(build_columns), table_mode);
  SharedJoinBuild* build = owned.get();
  registry_->builds.emplace(node.get(), std::move(owned));
  // HashJoinOp::Open's drains, landing in the shared sharded structure —
  // so build-side materialize totals match serial.
  return RunPhase(
      build_child,
      [&](size_t, PhysicalOperator* op, PhysicalContext& ctx,
          SharedBudget*) -> Status {
        return Drain(op, ctx, "exec.hash.insert",
                     table_mode ? DrainAdmission::kEvery
                                : DrainAdmission::kFresh,
                     [&](const Tuple& t) { return build->Insert(t); });
      });
}

Status PlanRuntime::PrepareSpine(const PhysicalPlanPtr& node) {
  switch (node->kind) {
    case PhysicalKind::kTableScan:
    case PhysicalKind::kColumnarScan: {
      // Columnar morsels are segment-aligned (kMorselSize ==
      // kSegmentRows) and sized over the row count, which also covers
      // the stale-store row-path fallback in Build.
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             ctx_.db->Get(node->relation_name));
      registry_->morsels.emplace(
          node.get(), std::make_unique<MorselSource>(rel->rows().size()));
      if (node->kind == PhysicalKind::kColumnarScan) {
        registry_->dict_matches.emplace(node.get(),
                                        std::make_unique<DictMatchTables>());
      }
      return Status::Ok();
    }
    case PhysicalKind::kLiteralScan: {
      registry_->morsels.emplace(node.get(), std::make_unique<MorselSource>(
                                                 node->literal->rows().size()));
      return Status::Ok();
    }
    case PhysicalKind::kIndexScan: {
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             ctx_.db->Get(node->relation_name));
      // Mirror Build's stale-index fallback: without the index the worker
      // trees scan the whole table, so the morsels cover all rows. The
      // bucket lookup is the run's one index probe; workers sharing these
      // morsels do not count it again.
      size_t size = rel->rows().size();
      if (rel->HasIndex(node->index_column)) {
        size = rel->Matches(node->index_column, node->index_value).size();
        ++ctx_.stats->hash_probes;
      }
      registry_->morsels.emplace(node.get(),
                                 std::make_unique<MorselSource>(size));
      return Status::Ok();
    }
    case PhysicalKind::kFilter:
      return PrepareSpine(node->children[0]);
    case PhysicalKind::kProject: {
      registry_->seen_sets.emplace(
          node.get(), std::make_unique<ShardedTupleSet>(node->arity));
      return PrepareSpine(node->children[0]);
    }
    case PhysicalKind::kUnion: {
      registry_->seen_sets.emplace(
          node.get(), std::make_unique<ShardedTupleSet>(node->arity));
      BRYQL_RETURN_NOT_OK(PrepareSpine(node->children[0]));
      return PrepareSpine(node->children[1]);
    }
    case PhysicalKind::kHashJoin: {
      BRYQL_RETURN_NOT_OK(BuildJoinShared(node));
      return PrepareSpine(node->build_left ? node->children[1]
                                           : node->children[0]);
    }
    case PhysicalKind::kDivision:
    case PhysicalKind::kGroupDivision:
    case PhysicalKind::kGroupCount: {
      // Blocking operators terminate the spine: computed once, serially
      // (their Opens do their own internal admissions, identical to the
      // serial run), and their *output* is shared unadmitted — serial
      // execution streams it to the parent without admissions too. The
      // output is already a set, so its rows are shared as they stream.
      std::vector<Tuple> rows;
      BRYQL_RETURN_NOT_OK(Serial().Drive(node, [&](PhysicalOperator* op) {
        TupleBatch batch(ctx_.batch_size);
        while (true) {
          BRYQL_RETURN_NOT_OK(op->NextBatch(&batch));
          if (batch.empty()) return Status::Ok();
          for (size_t i = 0; i < batch.size(); ++i) rows.push_back(batch[i]);
        }
      }));
      ShareRows(node.get(), std::move(rows));
      return Status::Ok();
    }
    case PhysicalKind::kNonEmpty:
    case PhysicalKind::kBoolNot:
    case PhysicalKind::kBoolAnd:
    case PhysicalKind::kBoolOr: {
      // A boolean subtree in relational context: RunBool on this
      // coordinator, shared as the 0-ary truth relation.
      BRYQL_ASSIGN_OR_RETURN(Relation rel, RunTruth(node));
      ShareRows(node.get(), rel.rows());
      return Status::Ok();
    }
  }
  return Status::Internal("unknown physical kind");
}

Result<Relation> PlanRuntime::RunParallel(const PhysicalPlanPtr& plan) {
  BRYQL_RETURN_NOT_OK(PrepareSpine(plan));
  // The final order-insensitive merge: every worker drains its partition
  // of the spine with DrainToRelation's admission rules, freshness
  // decided by a dedup set shared across workers so the totals match
  // serial exactly. That set already holds each fresh row once, so after
  // the barrier its rows move into the result with no second dedup.
  ShardedTupleSet result_set(plan->arity);
  BRYQL_RETURN_NOT_OK(RunPhase(
      plan,
      [&](size_t, PhysicalOperator* op, PhysicalContext& ctx,
          SharedBudget*) -> Status {
        return Drain(op, ctx, "exec.materialize.insert",
                     DrainAdmission::kEvery,
                     [&](const Tuple& t) { return result_set.Insert(t); });
      }));
  return Relation::FromDistinctRows(plan->arity, result_set.TakeRows());
}

Result<bool> PlanRuntime::WitnessRace(const PhysicalPlanPtr& child) {
  BRYQL_RETURN_NOT_OK(PrepareSpine(child));
  // Each worker pulls a single capacity-1 batch from its partition; the
  // winner raises the phase's stop flag, which every peer's governor
  // shard observes at its next poll and unwinds without an error.
  std::atomic<bool> found{false};
  BRYQL_RETURN_NOT_OK(RunPhase(
      child,
      [&](size_t, PhysicalOperator* op, PhysicalContext& ctx,
          SharedBudget* budget) -> Status {
        TupleBatch batch(1);
        BRYQL_RETURN_NOT_OK(op->NextBatch(&batch));
        // A tripped governor must not masquerade as "empty".
        BRYQL_RETURN_NOT_OK(ctx.governor->status());
        if (!batch.empty()) {
          found.store(true, std::memory_order_relaxed);
          budget->RequestStop();
        }
        return Status::Ok();
      }));
  return found.load(std::memory_order_relaxed);
}

}  // namespace bryql
