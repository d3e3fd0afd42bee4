#include "exec/physical/filter.h"

#include "exec/physical/parallel.h"

namespace bryql {

Status FilterOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= in_.size()) {
      in_.set_capacity(out->capacity());
      BRYQL_RETURN_NOT_OK(child_->NextBatch(&in_));
      if (in_.empty()) break;
      pos_ = 0;
    }
    while (pos_ < in_.size() && !out->full()) {
      Tuple& t = in_[pos_++];
      if (!ctx_.governor->Tick()) return ctx_.governor->status();
      if (predicate_->Eval(t, &ctx_.stats->comparisons)) {
        // Copy, not move: both the input slot and the output slot keep
        // their storage warm.
        *out->AddSlot() = t;
      }
    }
  }
  return Status::Ok();
}

Status ProjectOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= in_.size()) {
      in_.set_capacity(out->capacity());
      BRYQL_RETURN_NOT_OK(child_->NextBatch(&in_));
      if (in_.empty()) break;
      pos_ = 0;
    }
    while (pos_ < in_.size() && !out->full()) {
      // The projection is hashed and compared in place; only a fresh one
      // is built, stored once in the seen set and copied into its slot.
      const Tuple& t = in_[pos_++];
      bool fresh = false;
      if (shared_seen_ != nullptr) {
        BRYQL_ASSIGN_OR_RETURN(
            fresh, shared_seen_->InsertProjection(
                       t, columns_,
                       [out](const Tuple& stored) { *out->AddSlot() = stored; }));
      } else {
        BRYQL_ASSIGN_OR_RETURN(fresh, seen_.InsertProjection(t, columns_));
        if (fresh) *out->AddSlot() = seen_.rows().back();
      }
      if (fresh) {
        if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
        ++ctx_.stats->tuples_materialized;
      } else if (!ctx_.governor->Tick()) {
        return ctx_.governor->status();
      }
    }
  }
  return Status::Ok();
}

}  // namespace bryql
