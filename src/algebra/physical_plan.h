#ifndef BRYQL_ALGEBRA_PHYSICAL_PLAN_H_
#define BRYQL_ALGEBRA_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "common/value.h"
#include "storage/relation.h"

namespace bryql {

/// Which member of the join family to compute. The paper's observation —
/// the complement-join "is easily implemented by modifying any semi-join
/// algorithm" (§3.1), and likewise the constrained outer-join from any
/// join (§3.3) — is why one hash join operator covers every variant.
enum class JoinVariant {
  kInner,      // ⋈: concatenated matches
  kSemi,       // ⋉: left rows with a partner
  kAnti,       // ⊼: complement-join — left rows without a partner
  kLeftOuter,  // ⟕: matches, or ∅-padding
  kMark,       // constrained outer-join: left row + ⊥/∅ mark column
};

const char* JoinVariantName(JoinVariant variant);

/// Physical operator kinds — what the lowering pass compiles the logical
/// Expr tree into. Where ExprKind says *what* is computed, PhysicalKind
/// says *how*: access path (table vs. index scan) and build-side
/// placement are explicit here. The whole join family, difference and
/// intersection included, lowers to kHashJoin; there is no product kind
/// either: × is a kHashJoin with no keys.
enum class PhysicalKind {
  kTableScan,      // full scan of a named base relation
  kLiteralScan,    // scan of an inline relation
  kIndexScan,      // hash-index bucket lookup + residual filter
  kColumnarScan,   // column-store scan, zone-pruned, predicate pushed down
  kFilter,         // σ_pred over a stream
  kProject,        // π_cols with streaming dedup
  kHashJoin,       // build + probe; covers all five JoinVariants
  kDivision,       // ÷
  kGroupDivision,  // per-group ÷
  kGroupCount,     // γ
  kUnion,          // ∪ with streaming dedup
  kNonEmpty,       // relation → boolean, first-witness semantics
  kBoolNot,
  kBoolAnd,
  kBoolOr,
};

const char* PhysicalKindName(PhysicalKind kind);

class PhysicalNode;
using PhysicalPlanPtr = std::shared_ptr<const PhysicalNode>;

/// One node of a lowered, executable plan. A PhysicalNode is a pure
/// *description* — it holds no runtime state, so a plan can be cached in a
/// PreparedQuery and instantiated into fresh operator trees many times
/// (src/exec/physical/runtime). Fields are public: the node is a record
/// produced by the lowering pass and consumed by the runtime and the
/// physical EXPLAIN, not an abstraction boundary.
struct PhysicalNode {
  PhysicalKind kind = PhysicalKind::kTableScan;
  std::vector<PhysicalPlanPtr> children;

  /// kTableScan / kIndexScan: base relation name, resolved against the
  /// catalog at instantiation time (never a raw pointer, so cached plans
  /// survive catalog updates).
  std::string relation_name;
  /// kLiteralScan: the inline relation, shared with the logical plan.
  std::shared_ptr<const Relation> literal;
  /// kIndexScan: the indexed equality `column = value`.
  size_t index_column = 0;
  Value index_value;

  /// kFilter predicate; kIndexScan residual; kHashJoin residual (kInner,
  /// over the concatenated tuple) or probe constraint (kLeftOuter/kMark,
  /// over the left tuple).
  PredicatePtr predicate;

  /// kProject columns.
  std::vector<size_t> columns;
  /// Join-family equi-key pairs (left column = right column).
  std::vector<JoinKey> keys;
  JoinVariant variant = JoinVariant::kInner;
  /// kHashJoin build-side placement: true builds the hash table on the
  /// left child and streams the right (cost-model choice, inner only).
  bool build_left = false;
  /// kGroupDivision / kGroupCount.
  size_t group_arity = 0;

  /// Output arity, fixed at lowering time.
  size_t arity = 0;
  /// kHashJoin(kLeftOuter): width of the ∅ padding (right child arity).
  size_t pad_arity = 0;

  /// Cost-model annotations (CostModel::Estimate at lowering time).
  double est_rows = 0;
  double est_cost = 0;

  /// One-line operator description, e.g.
  /// "HashJoin(anti, build=right, keys=[0=0])".
  std::string Label() const;

  /// Multi-line physical EXPLAIN, two-space indented, with cost
  /// annotations — the physical counterpart of Expr::ToString().
  std::string ToString() const;

  /// Number of operator nodes in the subtree.
  size_t Size() const;
};

}  // namespace bryql

#endif  // BRYQL_ALGEBRA_PHYSICAL_PLAN_H_
