#ifndef BRYQL_EXEC_PHYSICAL_OPERATOR_H_
#define BRYQL_EXEC_PHYSICAL_OPERATOR_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/batch.h"
#include "common/failpoints.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/stats.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace bryql {

/// Per-run context shared by every operator of one instantiated plan:
/// catalog, counters, the run's ResourceGovernor, and the configured batch
/// size. Plain borrowed pointers — the runtime driving the plan owns (or
/// outlives) all of them.
struct PhysicalContext {
  const Database* db = nullptr;
  ExecStats* stats = nullptr;
  ResourceGovernor* governor = nullptr;
  size_t batch_size = kDefaultBatchSize;
};

/// A physical operator instance: runtime state for one PhysicalNode of a
/// lowered plan. Operators move data in batches instead of one virtual
/// call per tuple:
///
///   Open()      — acquire inputs, build state (hash tables, sorted runs,
///                 division groups); opens children first.
///   NextBatch() — clear `out`, fill it with up to out->capacity() tuples.
///                 An OK status with an *empty* batch means exhausted.
///                 Operators honour the requested capacity and request no
///                 more than that from their children, so a capacity-1
///                 pull (the non-emptiness test) stops at the first
///                 witness.
///   Close()     — release state; optional.
///
/// Resource governance: base reads pass AdmitScan, intermediate
/// insertions AdmitMaterialize, and inner loops Tick. Admissions are
/// counted per tuple, never per batch, so a run's totals — and with them
/// its budget verdict and StatusCode — do not depend on the batch size.
/// Because NextBatch returns Status, a tripped governor surfaces directly
/// as the governor's latched Status instead of masquerading as
/// exhaustion.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;
  virtual Status Open() = 0;
  virtual Status NextBatch(TupleBatch* out) = 0;
  virtual void Close() {}
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOperator>;

using TupleSet = std::unordered_set<Tuple, TupleHash>;
/// Adapts a batched child to one-tuple-at-a-time pulls, buffering one
/// batch internally. `capacity` is forwarded to the child per refill, so a
/// capacity-1 consumer induces capacity-1 pulls all the way down.
class BatchCursor {
 public:
  explicit BatchCursor(PhysicalOperator* child) : child_(child), buf_(1) {}

  /// Fetches the next tuple into `*out`; `*have` is false at exhaustion.
  Status Next(Tuple* out, bool* have, size_t capacity) {
    if (pos_ >= buf_.size()) {
      buf_.set_capacity(capacity);
      BRYQL_RETURN_NOT_OK(child_->NextBatch(&buf_));
      pos_ = 0;
      if (buf_.empty()) {
        *have = false;
        return Status::Ok();
      }
    }
    // Copy-assign, not move: the slot keeps its storage for the next
    // refill and `*out` (a long-lived caller buffer) reuses its own, so
    // the steady-state pull is allocation-free.
    *out = buf_[pos_++];
    *have = true;
    return Status::Ok();
  }

 private:
  PhysicalOperator* child_;
  TupleBatch buf_;
  size_t pos_ = 0;
};

/// Streams a blocking operator's result relation, computed in full at
/// Open: divisions, per-group divisions and group counts share this
/// output path.
class BlockingResultOp : public PhysicalOperator {
 public:
  Status NextBatch(TupleBatch* out) final {
    out->Clear();
    while (!out->full() && index_ < result_.rows().size()) {
      *out->AddSlot() = result_.rows()[index_++];
    }
    return Status::Ok();
  }

 protected:
  BlockingResultOp() : result_(0) {}
  Relation result_;

 private:
  size_t index_ = 0;
};

/// How a drain admits what it inserts. Both modes admit per tuple, in
/// input order, so runs at any batch size reach the same budget verdict.
enum class DrainAdmission {
  /// Admit every tuple before inserting it, count fresh insertions
  /// (relations, hash tables, division inputs).
  kEvery,
  /// Admit and count fresh insertions only; duplicates tick (key sets,
  /// divisors).
  kFresh,
};

/// The one drain loop of every blocking edge: hash builds, division and
/// group-count inputs, and the root's materialization. Pulls `child` to
/// exhaustion, calling
/// `insert(tuple)` → Result<bool> (fresh, or an error that aborts the
/// drain); `failpoint` fires per tuple. Returns the governor's status at
/// exhaustion, so a trip latched anywhere below surfaces here.
template <typename Insert>
Status Drain(PhysicalOperator* child, const PhysicalContext& ctx,
             [[maybe_unused]] const char* failpoint,
             DrainAdmission admission, Insert&& insert) {
  TupleBatch batch(ctx.batch_size);
  while (true) {
    BRYQL_RETURN_NOT_OK(child->NextBatch(&batch));
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      BRYQL_FAILPOINT(failpoint);
      if (admission == DrainAdmission::kEvery &&
          !ctx.governor->AdmitMaterialize()) {
        return ctx.governor->status();
      }
      BRYQL_ASSIGN_OR_RETURN(bool fresh, insert(batch[i]));
      if (fresh) {
        if (admission == DrainAdmission::kFresh &&
            !ctx.governor->AdmitMaterialize()) {
          return ctx.governor->status();
        }
        ++ctx.stats->tuples_materialized;
      } else if (admission == DrainAdmission::kFresh &&
                 !ctx.governor->Tick()) {
        return ctx.governor->status();
      }
    }
  }
  return ctx.governor->status();
}

/// Fully drains `child` into `out`: every tuple is admitted, fresh ones
/// are counted ("exec.materialize.insert").
inline Status DrainToRelation(PhysicalOperator* child,
                              const PhysicalContext& ctx, Relation* out) {
  return Drain(child, ctx, "exec.materialize.insert", DrainAdmission::kEvery,
               [out](const Tuple& t) { return out->Insert(t); });
}

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_OPERATOR_H_
