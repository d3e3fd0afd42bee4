#ifndef BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_
#define BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_

#include <utility>
#include <vector>

#include "algebra/physical_plan.h"
#include "algebra/predicate.h"
#include "exec/physical/join_table.h"
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
/// is drained at Open into a JoinTable (rows stored once, chained per key
/// in build order) for variants that need partner values, or into a
/// Relation of key columns for pure membership tests; the probe side
/// streams in batches. Probe keys are hashed and compared in place over
/// the probe tuple's key columns, and every output is assembled directly
/// in a warm TupleBatch slot.
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
  /// Counts one probe of current_probe_ and starts walking its chain of
  /// partners (match_row_ is kEnd when there are none).
  void ProbeTable();
  /// Counts one probe of current_probe_ against the key set.
  bool ProbeKeys();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  /// The key columns of the build rows and of the probe tuples, paired
  /// position by position.
  std::vector<size_t> build_columns_;
  std::vector<size_t> probe_columns_;
  JoinVariant variant_;
  PredicatePtr predicate_;
  bool build_left_;
  size_t pad_arity_;
  PhysicalContext ctx_;
  const SharedJoinBuild* shared_build_;

  BatchCursor probe_cursor_;
  JoinTable table_;  // kInner, kLeftOuter
  Relation key_set_;  // kSemi, kAnti, kMark
  Tuple current_probe_;
  /// The table holding current_probe_'s partners and the next one to
  /// emit, or kEnd.
  const JoinTable* match_table_ = nullptr;
  uint32_t match_row_ = JoinTable::kEnd;
  bool probe_done_ = false;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_
