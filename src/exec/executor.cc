#include "exec/executor.h"

#include <string>

#include "exec/lowering.h"
#include "exec/physical/runtime.h"

namespace bryql {

Result<Relation> Executor::Evaluate(const ExprPtr& expr) {
  BRYQL_ASSIGN_OR_RETURN(PhysicalPlanPtr plan, Lower(expr));
  return ExecutePhysical(plan);
}

Result<bool> Executor::EvaluateBool(const ExprPtr& expr) {
  BRYQL_ASSIGN_OR_RETURN(PhysicalPlanPtr plan, Lower(expr));
  if (plan->arity != 0) {
    return Status::InvalidArgument(
        "EvaluateBool requires an arity-0 (boolean) expression, got arity " +
        std::to_string(plan->arity));
  }
  return ExecutePhysicalBool(plan);
}

Result<PhysicalPlanPtr> Executor::Lower(const ExprPtr& expr) const {
  // Depth is computed iteratively, so a plan too deep for the recursive
  // validation/lowering/construction below is rejected before it can
  // smash the stack.
  const size_t max_depth = governor_->options().max_plan_depth;
  if (max_depth != 0 && expr->Depth() > max_depth) {
    return Status::ResourceExhausted(
        "plan depth " + std::to_string(expr->Depth()) +
        " exceeds max_plan_depth (" + std::to_string(max_depth) + ")");
  }
  // Validate the whole tree up front so lowering can assume well-formed
  // shapes.
  BRYQL_RETURN_NOT_OK(expr->Arity(*db_).status());
  return LowerPlan(*db_, options_, expr);
}

// num_threads is a drive-time knob, not a plan property: the same
// (cached) physical plan executes serially or morsel-parallel depending on
// the options of the run at hand.
Result<Relation> Executor::ExecutePhysical(const PhysicalPlanPtr& plan) {
  PlanRuntime runtime(db_, options_.batch_size, &stats_, governor_,
                      governor_->options().num_threads);
  return runtime.Run(plan);
}

Result<bool> Executor::ExecutePhysicalBool(const PhysicalPlanPtr& plan) {
  PlanRuntime runtime(db_, options_.batch_size, &stats_, governor_,
                      governor_->options().num_threads);
  return runtime.RunBool(plan);
}

}  // namespace bryql
