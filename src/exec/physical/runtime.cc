#include "exec/physical/runtime.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "algebra/predicate.h"
#include "common/failpoints.h"
#include "exec/physical/columnar_scan.h"
#include "exec/physical/division.h"
#include "exec/physical/filter.h"
#include "exec/physical/hash_join.h"
#include "exec/physical/parallel.h"
#include "exec/physical/scan.h"
#include "exec/physical/set_ops.h"

namespace bryql {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Decorator feeding ExecStats::operator_stats, and the engine's
/// exception-isolation barrier: every Open/NextBatch/Close dispatch runs
/// inside try/catch, so a throwing operator — std::bad_alloc under memory
/// pressure, a std::exception escaping operator code, or the
/// "exec.physical.throw" failpoint simulating either — surfaces as a
/// well-formed kInternal naming the operator instead of unwinding out of
/// PlanRuntime::Run (or, worse, out of a ThreadPool worker closure, which
/// would terminate the process). It holds an *index* into the stats
/// vector, not a pointer — the vector grows while the plan is being
/// instantiated.
class TimedOp : public PhysicalOperator {
 public:
  TimedOp(PhysicalOpPtr inner, std::string label, ExecStats* stats,
          size_t index, ResourceGovernor* governor)
      : inner_(std::move(inner)), label_(std::move(label)), stats_(stats),
        index_(index), governor_(governor) {}
  Status Open() override {
    const uint64_t start = NowNs();
    Status status = Guarded([&] {
      BRYQL_FAILPOINT_THROW("exec.physical.throw");
      return inner_->Open();
    });
    stats_->operator_stats[index_].open_ns += NowNs() - start;
    return status;
  }
  Status NextBatch(TupleBatch* out) override {
    const uint64_t start = NowNs();
    Status status = Guarded([&] {
      BRYQL_FAILPOINT_THROW("exec.physical.throw");
      return inner_->NextBatch(out);
    });
    OperatorStats& os = stats_->operator_stats[index_];
    os.next_ns += NowNs() - start;
    ++os.batches;
    os.rows += out->size();
    return status;
  }
  void Close() override {
    // Close is void; a throw here is contained by latching the governor,
    // so the run still finishes with a non-OK Status instead of a crash.
    Status status = Guarded([&] {
      inner_->Close();
      return Status::Ok();
    });
    if (!status.ok() && governor_ != nullptr) governor_->Trip(status);
  }

 private:
  template <typename Fn>
  Status Guarded(const Fn& fn) {
    // ContainedException (still kInternal) rather than Internal: the tag
    // marks the retryable barrier class for the service layer, while a
    // deterministic invariant breach stays a plain, non-retried Internal.
    try {
      return fn();
    } catch (const std::bad_alloc&) {
      return Status::ContainedException("operator '" + label_ +
                                        "' ran out of memory (bad_alloc)");
    } catch (const std::exception& e) {
      return Status::ContainedException("operator '" + label_ +
                                        "' threw: " + e.what());
    } catch (...) {
      return Status::ContainedException("operator '" + label_ +
                                        "' threw a non-standard exception");
    }
  }

  PhysicalOpPtr inner_;
  std::string label_;
  ExecStats* stats_;
  size_t index_;
  ResourceGovernor* governor_;
};

bool IsBoolean(PhysicalKind kind) {
  return kind == PhysicalKind::kNonEmpty || kind == PhysicalKind::kBoolNot ||
         kind == PhysicalKind::kBoolAnd || kind == PhysicalKind::kBoolOr;
}

/// The witness-vs-budget race (see PlanRuntime): under a finite tuple
/// budget the serial engine deterministically either finds the witness or
/// trips, depending on scan order; racing workers would make that verdict
/// scheduling-dependent.
bool HasFiniteTupleBudget(const QueryOptions& options) {
  return options.max_scanned_tuples != 0 ||
         options.max_materialized_tuples != 0;
}

}  // namespace

PlanRuntime::PlanRuntime(const Database* db, size_t batch_size,
                         ExecStats* stats, ResourceGovernor* governor,
                         size_t workers, const ParallelShared* shared)
    : ctx_{db, stats, governor, batch_size == 0 ? 1 : batch_size, shared},
      workers_(std::min(workers, kMaxWorkers)),
      registry_(workers_ > 1 ? std::make_unique<ParallelShared>() : nullptr) {
}

PlanRuntime::~PlanRuntime() = default;

Result<PhysicalOpPtr> PlanRuntime::Build(const PhysicalPlanPtr& node,
                                         size_t depth) {
  // Operator instantiation: fault-injection site, plan-depth admission,
  // and a deadline/cancellation poll before any child work starts, once
  // per node in root-first order.
  BRYQL_FAILPOINT("exec.iterator.open");
  GovernorDepthGuard depth_guard(ctx_.governor);
  if (!depth_guard.ok()) return ctx_.governor->status();
  BRYQL_RETURN_NOT_OK(ctx_.governor->CheckNow());
  ++ctx_.stats->operators;
  const size_t op_index = ctx_.stats->operator_stats.size();
  ctx_.stats->operator_stats.push_back(
      OperatorStats{node->Label(), depth, 0, 0, 0, 0});

  PhysicalOpPtr op;
  // Parallel workers: a node the coordinator already materialized (a
  // blocking operator, a boolean subtree, …) is replaced wholesale by a
  // scan over the shared result — morsel-partitioned, with no admissions,
  // exactly like the serial BlockingResultOp streaming it would be.
  if (ctx_.shared != nullptr) {
    if (const std::vector<Tuple>* rows = ctx_.shared->FindRows(node.get())) {
      op = PhysicalOpPtr(
          new RelationScanOp(rows, ctx_.shared->FindMorsels(node.get())));
      return PhysicalOpPtr(new TimedOp(std::move(op), node->Label(),
                                       ctx_.stats, op_index, ctx_.governor));
    }
  }
  // In serial runs every Find* below is a null `shared` short-circuit;
  // the decisions are per *node*, so the per-tuple hot paths are shared
  // between both modes unchanged.
  MorselSource* morsels =
      ctx_.shared == nullptr ? nullptr : ctx_.shared->FindMorsels(node.get());
  // Children instantiate left to right, so the whole tree is root-first.
  auto input = [&](size_t i) { return Build(node->children[i], depth + 1); };
  // A stale plan — cached across a catalog change that dropped the index
  // or column store it was lowered against — recovers on the row path: a
  // full scan under the node's whole selection.
  auto row_path = [&](const Relation* rel, PredicatePtr selection) {
    PhysicalOpPtr scan(new TableScanOp(&rel->rows(), ctx_, morsels));
    if (selection == nullptr) return scan;
    return PhysicalOpPtr(
        new FilterOp(std::move(scan), std::move(selection), ctx_));
  };
  switch (node->kind) {
    case PhysicalKind::kTableScan: {
      BRYQL_FAILPOINT("exec.scan.open");
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             ctx_.db->Get(node->relation_name));
      op = PhysicalOpPtr(new TableScanOp(&rel->rows(), ctx_, morsels));
      break;
    }
    case PhysicalKind::kLiteralScan: {
      op = PhysicalOpPtr(
          new TableScanOp(&node->literal->rows(), ctx_, morsels));
      break;
    }
    case PhysicalKind::kIndexScan: {
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             ctx_.db->Get(node->relation_name));
      if (!rel->HasIndex(node->index_column)) {
        PredicatePtr eq = Predicate::ColVal(CompareOp::kEq, node->index_column,
                                            node->index_value);
        op = row_path(rel, node->predicate == nullptr
                               ? eq
                               : Predicate::And({eq, node->predicate}));
        break;
      }
      // One bucket lookup per run: with shared morsels the coordinator
      // counted it in PrepareSpine, not once per worker.
      if (morsels == nullptr) ++ctx_.stats->hash_probes;
      op = PhysicalOpPtr(new IndexScanOp(
          rel, &rel->Matches(node->index_column, node->index_value),
          node->predicate, ctx_, morsels));
      break;
    }
    case PhysicalKind::kColumnarScan: {
      BRYQL_FAILPOINT("exec.scan.open");
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             ctx_.db->Get(node->relation_name));
      if (rel->column_store() == nullptr) {
        op = row_path(rel, node->predicate);
        break;
      }
      op = PhysicalOpPtr(new ColumnarScanOp(
          rel->column_store(), node->predicate, ctx_, morsels,
          ctx_.shared == nullptr ? nullptr
                                 : ctx_.shared->FindDictMatches(node.get())));
      break;
    }
    case PhysicalKind::kFilter: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr child, input(0));
      op = PhysicalOpPtr(
          new FilterOp(std::move(child), node->predicate, ctx_));
      break;
    }
    case PhysicalKind::kProject: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr child, input(0));
      ShardedTupleSet* seen =
          ctx_.shared == nullptr ? nullptr : ctx_.shared->FindSeen(node.get());
      op = PhysicalOpPtr(
          new ProjectOp(std::move(child), node->columns, ctx_, seen));
      break;
    }
    case PhysicalKind::kHashJoin: {
      // Parallel workers: a pre-built SharedJoinBuild replaces the build
      // side wholesale — only the probe child is instantiated, and the
      // build-side slot stays null.
      const SharedJoinBuild* shared_build =
          ctx_.shared == nullptr ? nullptr : ctx_.shared->FindBuild(node.get());
      const size_t build_index = node->build_left ? 0 : 1;
      PhysicalOpPtr inputs[2];
      for (size_t i = 0; i < 2; ++i) {
        if (shared_build != nullptr && i == build_index) continue;
        BRYQL_ASSIGN_OR_RETURN(inputs[i], input(i));
      }
      op = PhysicalOpPtr(new HashJoinOp(
          std::move(inputs[0]), std::move(inputs[1]), node->keys,
          node->variant, node->predicate, node->build_left, node->pad_arity,
          ctx_, shared_build));
      break;
    }
    case PhysicalKind::kDivision: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left, input(0));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right, input(1));
      op = PhysicalOpPtr(new DivisionOp(std::move(left), std::move(right),
                                        node->children[0]->arity,
                                        node->children[1]->arity, ctx_));
      break;
    }
    case PhysicalKind::kGroupDivision: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left, input(0));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right, input(1));
      op = PhysicalOpPtr(new GroupDivisionOp(
          std::move(left), std::move(right), node->children[0]->arity,
          node->children[1]->arity, node->group_arity, ctx_));
      break;
    }
    case PhysicalKind::kGroupCount: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr child, input(0));
      op = PhysicalOpPtr(
          new GroupCountOp(std::move(child), node->group_arity, ctx_));
      break;
    }
    case PhysicalKind::kUnion: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left, input(0));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right, input(1));
      ShardedTupleSet* seen =
          ctx_.shared == nullptr ? nullptr : ctx_.shared->FindSeen(node.get());
      op = PhysicalOpPtr(new UnionOp(std::move(left), std::move(right),
                                     node->arity, ctx_, seen));
      break;
    }
    case PhysicalKind::kNonEmpty:
    case PhysicalKind::kBoolNot:
    case PhysicalKind::kBoolAnd:
    case PhysicalKind::kBoolOr: {
      // A boolean subtree in relational context evaluates to the 0-ary
      // relation {()} (true) or {} (false).
      BRYQL_ASSIGN_OR_RETURN(Relation rel, RunTruth(node));
      op = PhysicalOpPtr(new RelationScanOp(std::move(rel)));
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown physical kind");
  return PhysicalOpPtr(new TimedOp(std::move(op), node->Label(), ctx_.stats,
                                   op_index, ctx_.governor));
}

Result<Relation> PlanRuntime::Run(const PhysicalPlanPtr& plan) {
  if (IsBoolean(plan->kind)) return RunTruth(plan);
  if (workers_ > 1) return RunParallel(plan);
  Relation rel(plan->arity);
  BRYQL_RETURN_NOT_OK(Drive(plan, [&](PhysicalOperator* op) {
    return DrainToRelation(op, ctx_, &rel);
  }));
  return rel;
}

Result<Relation> PlanRuntime::RunTruth(const PhysicalPlanPtr& plan) {
  BRYQL_ASSIGN_OR_RETURN(bool value, RunBool(plan));
  Relation rel(0);
  if (value) {
    BRYQL_RETURN_NOT_OK(rel.Insert(Tuple{}).status());
  }
  return rel;
}

Status PlanRuntime::Drive(
    const PhysicalPlanPtr& node,
    const std::function<Status(PhysicalOperator*)>& pull) {
  BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr op, Build(node, 0));
  BRYQL_RETURN_NOT_OK(op->Open());
  Status status = pull(op.get());
  op->Close();
  BRYQL_RETURN_NOT_OK(status);
  // A fault contained during Close (exception barrier) latches the
  // governor rather than interrupting the pull, and a tripped governor
  // must not masquerade as a short or empty result.
  return ctx_.governor->status();
}

Result<bool> PlanRuntime::NonEmpty(const PhysicalPlanPtr& child) {
  if (workers_ > 1) {
    if (!HasFiniteTupleBudget(ctx_.governor->options())) {
      return WitnessRace(child);
    }
    // Racing workers against a finite budget would make witness-vs-trip
    // scheduling-dependent; the serial pull decides it deterministically.
    return Serial().NonEmpty(child);
  }
  TupleBatch batch(1);
  BRYQL_RETURN_NOT_OK(Drive(
      child, [&](PhysicalOperator* op) { return op->NextBatch(&batch); }));
  return !batch.empty();
}

Result<bool> PlanRuntime::RunBool(const PhysicalPlanPtr& plan) {
  switch (plan->kind) {
    case PhysicalKind::kNonEmpty:
      return NonEmpty(plan->children[0]);
    case PhysicalKind::kBoolNot: {
      BRYQL_ASSIGN_OR_RETURN(bool v, RunBool(plan->children[0]));
      return !v;
    }
    case PhysicalKind::kBoolAnd: {
      for (const PhysicalPlanPtr& child : plan->children) {
        BRYQL_ASSIGN_OR_RETURN(bool v, RunBool(child));
        if (!v) return false;  // short-circuit
      }
      return true;
    }
    case PhysicalKind::kBoolOr: {
      for (const PhysicalPlanPtr& child : plan->children) {
        BRYQL_ASSIGN_OR_RETURN(bool v, RunBool(child));
        if (v) return true;  // short-circuit
      }
      return false;
    }
    default: {
      if (plan->arity != 0) {
        return Status::InvalidArgument(
            "boolean evaluation of a plan of arity " +
            std::to_string(plan->arity));
      }
      BRYQL_ASSIGN_OR_RETURN(Relation rel, Run(plan));
      return !rel.empty();
    }
  }
}

}  // namespace bryql
