#ifndef BRYQL_EXEC_PHYSICAL_SORT_MERGE_JOIN_H_
#define BRYQL_EXEC_PHYSICAL_SORT_MERGE_JOIN_H_

#include <utility>
#include <vector>

#include "algebra/physical_plan.h"
#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

/// The sort-merge counterpart of HashJoinOp: both inputs are materialized
/// at Open (they must be sorted in full before merging), joined with the
/// shared SortMergeJoin kernel, and the result streams out in batches.
class SortMergeJoinOp : public BlockingResultOp {
 public:
  SortMergeJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                  size_t left_arity, size_t right_arity,
                  std::vector<JoinKey> keys, JoinVariant variant,
                  PredicatePtr predicate, PhysicalContext ctx)
      : left_(std::move(left)), right_(std::move(right)),
        left_arity_(left_arity), right_arity_(right_arity),
        keys_(std::move(keys)), variant_(variant),
        predicate_(std::move(predicate)), ctx_(ctx) {}
  Status Open() override;
  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  size_t left_arity_;
  size_t right_arity_;
  std::vector<JoinKey> keys_;
  JoinVariant variant_;
  PredicatePtr predicate_;
  PhysicalContext ctx_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_SORT_MERGE_JOIN_H_
