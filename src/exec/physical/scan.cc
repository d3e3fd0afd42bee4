#include "exec/physical/scan.h"

namespace bryql {

Status TableScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && index_ < rows_->size()) {
    if (!ctx_.governor->AdmitScan()) return ctx_.governor->status();
    ++ctx_.stats->tuples_scanned;
    *out->AddSlot() = (*rows_)[index_++];
  }
  return Status::Ok();
}

Status IndexScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && index_ < matches_->size()) {
    if (!ctx_.governor->AdmitScan()) return ctx_.governor->status();
    const Tuple& row = rel_->rows()[(*matches_)[index_++]];
    ++ctx_.stats->tuples_scanned;
    if (residual_ == nullptr ||
        residual_->Eval(row, &ctx_.stats->comparisons)) {
      *out->AddSlot() = row;
    }
  }
  return Status::Ok();
}

Status RelationScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && index_ < rel_.size()) {
    *out->AddSlot() = rel_.rows()[index_++];
  }
  return Status::Ok();
}

}  // namespace bryql
