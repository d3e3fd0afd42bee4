#ifndef BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_
#define BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_

#include <utility>
#include <vector>

#include "algebra/physical_plan.h"
#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

class SharedJoinBuild;

/// The whole hash-join family of the paper behind one operator: inner
/// join, semi-join, complement-join (Definition 6, kAnti), unidirectional
/// outer join, and the space-saving constrained outer join (Definition 7,
/// kMark). A cartesian product is the inner join with no keys: every
/// probe tuple meets the whole build side, and since NextInner ticks per
/// candidate, deadlines bite inside the quadratic loop. The build side
/// is drained into a hash table at Open (a key-multimap for variants that
/// need partner values, a key set for pure membership tests); the probe
/// side streams in batches.
///
/// `build_left` (inner joins only) puts the left input on the build side
/// when the lowering's cost model estimates it smaller; output column
/// order stays left ++ right regardless.
///
/// With a SharedJoinBuild (parallel workers) the build side was drained
/// once, concurrently, before this operator existed: Open skips the drain,
/// probes go to the shared table, and the build-side operator pointer is
/// null. Serial probes pay only a predicted-null branch.
class HashJoinOp : public PhysicalOperator {
 public:
  /// `predicate` is the residual condition for kInner (evaluated on the
  /// concatenated tuple) or the Definition 7 probe constraint for
  /// kLeftOuter/kMark (evaluated on the left tuple); it must be null for
  /// kSemi/kAnti. `pad_arity` is the right-side arity, used by kLeftOuter
  /// to pad partnerless tuples with nulls.
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
             std::vector<JoinKey> keys, JoinVariant variant,
             PredicatePtr predicate, bool build_left, size_t pad_arity,
             PhysicalContext ctx, const SharedJoinBuild* shared_build = nullptr);
  Status Open() override;
  Status NextBatch(TupleBatch* out) override;
  void Close() override {
    if (left_ != nullptr) left_->Close();
    if (right_ != nullptr) right_->Close();
  }

 private:
  Status DrainBuild(PhysicalOperator* build);
  Status NextInner(TupleBatch* out);
  Status NextSemiAnti(TupleBatch* out);
  Status NextOuter(TupleBatch* out);
  Status NextMark(TupleBatch* out);
  Tuple PadWithNulls(const Tuple& t) const;
  const std::vector<Tuple>* FindMatches(const Tuple& key) const;
  bool ContainsKey(const Tuple& key) const;

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<JoinKey> keys_;
  JoinVariant variant_;
  PredicatePtr predicate_;
  bool build_left_;
  size_t pad_arity_;
  PhysicalContext ctx_;
  const SharedJoinBuild* shared_build_;

  BatchCursor probe_cursor_;
  TupleMultiMap table_;   // kInner, kLeftOuter
  TupleSet key_set_;      // kSemi, kAnti, kMark
  Tuple current_probe_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_index_ = 0;
  bool probe_done_ = false;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_
