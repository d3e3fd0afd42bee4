#include "exec/physical/sort_merge_join.h"

#include "exec/sort_merge.h"

namespace bryql {

Status SortMergeJoinOp::Open() {
  BRYQL_RETURN_NOT_OK(left_->Open());
  BRYQL_RETURN_NOT_OK(right_->Open());
  Relation left_rel(left_arity_);
  BRYQL_RETURN_NOT_OK(DrainToRelation(left_.get(), ctx_, &left_rel));
  Relation right_rel(right_arity_);
  BRYQL_RETURN_NOT_OK(DrainToRelation(right_.get(), ctx_, &right_rel));
  BRYQL_ASSIGN_OR_RETURN(result_,
                         SortMergeJoin(left_rel, right_rel, keys_, variant_,
                                       predicate_, ctx_.stats));
  return Status::Ok();
}

}  // namespace bryql
