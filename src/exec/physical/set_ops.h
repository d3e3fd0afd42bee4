#ifndef BRYQL_EXEC_PHYSICAL_SET_OPS_H_
#define BRYQL_EXEC_PHYSICAL_SET_OPS_H_

#include <utility>

#include "exec/physical/operator.h"

namespace bryql {

/// Union with streaming dedup: the left input streams through first, then
/// the right; duplicates collapse against everything already emitted.
/// Fresh tuples are admitted as materializations, duplicates only tick —
/// the union buys its set semantics with the memory the dedup set costs.
/// The dedup set is a Relation of the output `arity`: a fresh tuple is
/// copied into it once.
class UnionOp : public PhysicalOperator {
 public:
  UnionOp(PhysicalOpPtr left, PhysicalOpPtr right, size_t arity,
          PhysicalContext ctx)
      : left_(std::move(left)), right_(std::move(right)),
        left_cursor_(left_.get()), right_cursor_(right_.get()), ctx_(ctx),
        seen_(arity) {}
  Status Open() override {
    BRYQL_RETURN_NOT_OK(left_->Open());
    return right_->Open();
  }
  Status NextBatch(TupleBatch* out) override;
  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  BatchCursor left_cursor_;
  BatchCursor right_cursor_;
  PhysicalContext ctx_;
  bool on_left_ = true;
  Relation seen_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_SET_OPS_H_
