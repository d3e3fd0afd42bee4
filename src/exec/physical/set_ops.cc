#include "exec/physical/set_ops.h"

#include "exec/physical/parallel.h"

namespace bryql {

Status UnionOp::NextBatch(TupleBatch* out) {
  out->Clear();
  Tuple t;  // reused across pulls; the cursor copy-assigns into it
  while (!out->full()) {
    bool have = false;
    BRYQL_RETURN_NOT_OK((on_left_ ? left_cursor_ : right_cursor_)
                            .Next(&t, &have, out->capacity()));
    if (!have) {
      if (!on_left_) break;
      on_left_ = false;
      continue;
    }
    BRYQL_ASSIGN_OR_RETURN(
        bool fresh,
        shared_seen_ != nullptr ? shared_seen_->Insert(t) : seen_.Insert(t));
    if (fresh) {
      if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
      ++ctx_.stats->tuples_materialized;
      *out->AddSlot() = t;
    } else if (!ctx_.governor->Tick()) {
      return ctx_.governor->status();
    }
  }
  return Status::Ok();
}

}  // namespace bryql
