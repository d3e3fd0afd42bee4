#include "exec/lowering.h"

#include <memory>
#include <utility>
#include <vector>

#include "algebra/cost_model.h"
#include "common/failpoints.h"

namespace bryql {
namespace {

/// Finds an equality conjunct `col = value` whose column carries an index
/// on `rel`. On a hit, `*residual` receives the remaining conjuncts (or
/// nullptr when the equality was the whole predicate). The access-path
/// rule is applied once, at lowering time, so every run of the plan uses
/// the same index.
const Predicate* FindIndexedEquality(const PredicatePtr& pred,
                                     const Relation& rel,
                                     PredicatePtr* residual) {
  auto qualifies = [&](const PredicatePtr& p) {
    return p->kind() == Predicate::Kind::kCompareColVal &&
           p->op() == CompareOp::kEq && rel.HasIndex(p->lhs());
  };
  if (qualifies(pred)) {
    *residual = nullptr;
    return pred.get();
  }
  if (pred->kind() != Predicate::Kind::kAnd) return nullptr;
  const std::vector<PredicatePtr>& parts = pred->children();
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!qualifies(parts[i])) continue;
    std::vector<PredicatePtr> rest;
    for (size_t j = 0; j < parts.size(); ++j) {
      if (j != i) rest.push_back(parts[j]);
    }
    *residual = rest.empty() ? nullptr : Predicate::And(std::move(rest));
    return parts[i].get();
  }
  return nullptr;
}

class Lowerer {
 public:
  Lowerer(const Database& db, const ExecOptions& options)
      : db_(db), options_(options), cost_(&db) {}

  Result<PhysicalPlanPtr> Lower(const ExprPtr& expr) {
    auto node = std::make_shared<PhysicalNode>();
    BRYQL_ASSIGN_OR_RETURN(node->arity, expr->Arity(db_));
    // Annotate every node with the cost model's view of the *logical*
    // subtree it implements, so the physical EXPLAIN shows the estimates
    // the lowering decisions were based on.
    BRYQL_ASSIGN_OR_RETURN(CostEstimate est, cost_.Estimate(expr));
    node->est_rows = est.rows;
    node->est_cost = est.cost;

    switch (expr->kind()) {
      case ExprKind::kScan: {
        node->kind = PhysicalKind::kTableScan;
        node->relation_name = expr->relation_name();
        break;
      }
      case ExprKind::kLiteral: {
        node->kind = PhysicalKind::kLiteralScan;
        node->literal = std::make_shared<const Relation>(expr->literal());
        break;
      }
      case ExprKind::kSelect: {
        // Access-path selection for σ_pred(scan): an indexed equality
        // conjunct becomes an index lookup (point access beats any scan);
        // otherwise a base relation with a column store becomes a
        // zone-pruned columnar scan when the cost model favours it;
        // otherwise the row path, a full scan plus filter.
        BRYQL_FAILPOINT("exec.lower.columnar");
        if (expr->child()->kind() == ExprKind::kScan) {
          BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                                 db_.Get(expr->child()->relation_name()));
          PredicatePtr residual;
          const Predicate* eq =
              FindIndexedEquality(expr->predicate(), *rel, &residual);
          if (eq != nullptr) {
            node->kind = PhysicalKind::kIndexScan;
            node->relation_name = expr->child()->relation_name();
            node->index_column = eq->lhs();
            node->index_value = eq->value();
            node->predicate = std::move(residual);
            break;
          }
          if (options_.use_columnar && rel->column_store() != nullptr) {
            const double rows = static_cast<double>(rel->size());
            const double columnar_cost =
                rows * kColumnarScanCostFactor + est.rows;
            if (columnar_cost < node->est_cost) {
              node->kind = PhysicalKind::kColumnarScan;
              node->relation_name = expr->child()->relation_name();
              node->predicate = expr->predicate();
              node->est_cost = columnar_cost;
              break;
            }
          }
        }
        node->kind = PhysicalKind::kFilter;
        node->predicate = expr->predicate();
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kProject: {
        node->kind = PhysicalKind::kProject;
        node->columns = expr->columns();
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kProduct:
      case ExprKind::kJoin: {
        // A product is an inner join with no keys (and no predicate):
        // every probe tuple meets the whole build side.
        node->kind = PhysicalKind::kHashJoin;
        node->variant = JoinVariant::kInner;
        node->keys = expr->keys();
        node->predicate = expr->predicate();
        BRYQL_ASSIGN_OR_RETURN(CostEstimate left_est,
                               cost_.Estimate(expr->left()));
        BRYQL_ASSIGN_OR_RETURN(CostEstimate right_est,
                               cost_.Estimate(expr->right()));
        // Strictly smaller only: ties keep the conventional build-right
        // so plans stay stable under symmetric inputs.
        node->build_left = left_est.rows < right_est.rows;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kSemiJoin:
      case ExprKind::kAntiJoin: {
        node->kind = PhysicalKind::kHashJoin;
        node->variant = expr->kind() == ExprKind::kAntiJoin
                            ? JoinVariant::kAnti
                            : JoinVariant::kSemi;
        node->keys = expr->keys();
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kOuterJoin: {
        node->kind = PhysicalKind::kHashJoin;
        node->variant = JoinVariant::kLeftOuter;
        node->keys = expr->keys();
        node->predicate = expr->constraint();
        BRYQL_ASSIGN_OR_RETURN(node->pad_arity,
                               expr->right()->Arity(db_));
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kMarkJoin: {
        node->kind = PhysicalKind::kHashJoin;
        node->variant = JoinVariant::kMark;
        node->keys = expr->keys();
        node->predicate = expr->constraint();
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kUnion: {
        node->kind = PhysicalKind::kUnion;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kDifference:
      case ExprKind::kIntersect: {
        // Difference/intersection are key-on-whole-tuple complement/semi
        // joins (paper §3.1), run by the same hash join.
        node->kind = PhysicalKind::kHashJoin;
        node->variant = expr->kind() == ExprKind::kIntersect
                            ? JoinVariant::kSemi
                            : JoinVariant::kAnti;
        BRYQL_ASSIGN_OR_RETURN(size_t arity, expr->left()->Arity(db_));
        node->keys.reserve(arity);
        for (size_t i = 0; i < arity; ++i) node->keys.push_back({i, i});
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kDivision: {
        node->kind = PhysicalKind::kDivision;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kGroupDivision: {
        node->kind = PhysicalKind::kGroupDivision;
        node->group_arity = expr->group_arity();
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kGroupCount: {
        node->kind = PhysicalKind::kGroupCount;
        node->group_arity = expr->group_arity();
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kNonEmpty: {
        node->kind = PhysicalKind::kNonEmpty;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kBoolNot: {
        node->kind = PhysicalKind::kBoolNot;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kBoolAnd: {
        node->kind = PhysicalKind::kBoolAnd;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
      case ExprKind::kBoolOr: {
        node->kind = PhysicalKind::kBoolOr;
        BRYQL_RETURN_NOT_OK(LowerChildren(expr, node.get()));
        break;
      }
    }
    return PhysicalPlanPtr(std::move(node));
  }

 private:
  Status LowerChildren(const ExprPtr& expr, PhysicalNode* node) {
    node->children.reserve(expr->children().size());
    for (const ExprPtr& child : expr->children()) {
      BRYQL_ASSIGN_OR_RETURN(PhysicalPlanPtr lowered, Lower(child));
      node->children.push_back(std::move(lowered));
    }
    return Status::Ok();
  }

  const Database& db_;
  const ExecOptions& options_;
  CostModel cost_;
};

}  // namespace

Result<PhysicalPlanPtr> LowerPlan(const Database& db,
                                  const ExecOptions& options,
                                  const ExprPtr& expr) {
  BRYQL_FAILPOINT("exec.lower.plan");
  Lowerer lowerer(db, options);
  return lowerer.Lower(expr);
}

}  // namespace bryql
