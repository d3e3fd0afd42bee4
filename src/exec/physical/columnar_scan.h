#ifndef BRYQL_EXEC_PHYSICAL_COLUMNAR_SCAN_H_
#define BRYQL_EXEC_PHYSICAL_COLUMNAR_SCAN_H_

#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/columnar/column_store.h"
#include "storage/columnar/predicate_kernel.h"

namespace bryql {

/// Scan + filter fused over a relation's column store: per segment, a
/// zone-map verdict either skips the segment (kNone), emits it wholesale
/// (kAll), or runs the vectorized kernels into a selection vector whose
/// survivors are gathered into the output batch (predicate pushdown — the
/// plan has no separate Filter node above this scan).
///
/// Budget parity with the row path is a hard invariant, not an
/// aspiration: every segment's rows — pruned or evaluated — pass
/// AdmitScanBulk, so `scanned` budgets and counters match a TableScan +
/// Filter execution of the same plan exactly. Pruning saves *value work*
/// (comparisons and cache misses), never admission.
///
/// A capacity-1 consumer (the NonEmpty first-witness pull) switches the
/// operator to row-at-a-time admission and evaluation, so exactly w+1
/// rows are admitted when the witness sits at row w, as on the row path.
/// Pruned segments are still admitted in bulk — they provably cannot
/// contain the witness, and the row path would scan straight past those
/// rows anyway.
class ColumnarScanOp : public PhysicalOperator {
 public:
  ColumnarScanOp(const ColumnStore* store, PredicatePtr predicate,
                 PhysicalContext ctx)
      : store_(store), predicate_(std::move(predicate)),
        kernel_(store, predicate_.get()), ctx_(ctx) {}

  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  /// Zone verdict for `seg`, cached so witness-mode re-entries and the
  /// per-batch loop test each segment once.
  PredicateKernel::Zone ZoneOf(size_t seg);
  /// Bumps segments_scanned / segments_pruned once per segment even when
  /// capacity-1 pulls re-enter it across many NextBatch calls.
  void CountSegment(size_t seg, bool pruned);

  const ColumnStore* store_;
  PredicatePtr predicate_;
  PredicateKernel kernel_;
  PhysicalContext ctx_;
  size_t index_ = 0;

  /// Selected-but-not-yet-emitted rows of the segment last evaluated.
  std::vector<size_t> sel_;
  size_t sel_pos_ = 0;

  size_t cached_seg_ = static_cast<size_t>(-1);
  PredicateKernel::Zone cached_zone_ = PredicateKernel::Zone::kMaybe;
  size_t counted_seg_ = static_cast<size_t>(-1);
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_COLUMNAR_SCAN_H_
