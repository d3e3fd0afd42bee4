#include "exec/physical/columnar_scan.h"

#include <algorithm>

namespace bryql {

PredicateKernel::Zone ColumnarScanOp::ZoneOf(size_t seg) {
  if (seg != cached_seg_) {
    cached_seg_ = seg;
    cached_zone_ = kernel_.ZoneTest(seg);
  }
  return cached_zone_;
}

void ColumnarScanOp::CountSegment(size_t seg, bool pruned) {
  if (seg == counted_seg_) return;
  counted_seg_ = seg;
  if (pruned) {
    ++ctx_.stats->segments_pruned;
  } else {
    ++ctx_.stats->segments_scanned;
  }
}

Status ColumnarScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  const bool per_row = out->capacity() == 1;
  while (!out->full()) {
    // Drain the selection vector of the last evaluated segment first.
    if (sel_pos_ < sel_.size()) {
      store_->MaterializeRow(sel_[sel_pos_++], out->AddSlot());
      continue;
    }
    sel_.clear();
    sel_pos_ = 0;
    if (index_ >= store_->rows()) break;
    const size_t seg = index_ / kSegmentRows;
    const size_t seg_end = std::min(store_->rows(), (seg + 1) * kSegmentRows);
    const PredicateKernel::Zone zone = ZoneOf(seg);

    if (zone == PredicateKernel::Zone::kNone) {
      // Pruned — but its rows are still budget-admitted: the row engine
      // scans them, and parity of `scanned` is the invariant.
      const size_t n = seg_end - index_;
      if (!ctx_.governor->AdmitScanBulk(n)) return ctx_.governor->status();
      ctx_.stats->tuples_scanned += n;
      CountSegment(seg, /*pruned=*/true);
      index_ = seg_end;
      continue;
    }
    CountSegment(seg, /*pruned=*/false);

    if (per_row) {
      // First-witness mode: admit and evaluate one row per slot so the
      // governor sees the exact row-engine admission sequence.
      if (!ctx_.governor->AdmitScan()) return ctx_.governor->status();
      ++ctx_.stats->tuples_scanned;
      const size_t row = index_++;
      if (zone == PredicateKernel::Zone::kAll ||
          kernel_.EvalRow(row, &ctx_.stats->comparisons)) {
        store_->MaterializeRow(row, out->AddSlot());
      }
      continue;
    }

    const size_t n = seg_end - index_;
    if (!ctx_.governor->AdmitScanBulk(n)) return ctx_.governor->status();
    ctx_.stats->tuples_scanned += n;
    if (zone == PredicateKernel::Zone::kAll) {
      for (size_t r = index_; r < seg_end; ++r) sel_.push_back(r);
    } else {
      kernel_.EvalRange(index_, seg_end, &sel_, &ctx_.stats->comparisons);
    }
    index_ = seg_end;
  }
  return Status::Ok();
}

}  // namespace bryql
