#include "common/governor.h"

namespace bryql {

namespace {

constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

size_t LimitOrUnlimited(size_t limit) {
  return limit == 0 ? kUnlimited : limit;
}

}  // namespace

QueryOptions QueryOptions::Unlimited() {
  QueryOptions options;
  options.max_query_bytes = 0;
  options.max_formula_depth = 0;
  options.max_plan_depth = 0;
  options.max_rewrite_steps = 0;
  return options;
}

ResourceGovernor::ResourceGovernor(const QueryOptions& options)
    : options_(options),
      max_scanned_(LimitOrUnlimited(options.max_scanned_tuples)),
      max_materialized_(LimitOrUnlimited(options.max_materialized_tuples)),
      max_plan_depth_(LimitOrUnlimited(options.max_plan_depth)),
      has_deadline_(options.deadline.count() > 0),
      cancellation_(options.cancellation) {
  if (has_deadline_) {
    deadline_at_ = std::chrono::steady_clock::now() + options.deadline;
  }
}

bool ResourceGovernor::SlowCheck() {
  if (tripped()) return false;
  if (cancellation_ != nullptr && cancellation_->cancelled()) {
    status_ = Status::Cancelled("evaluation cancelled");
    return false;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_at_) {
    status_ = Status::DeadlineExceeded(
        "evaluation deadline of " +
        std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                           options_.deadline)
                           .count()) +
        "ms exceeded");
    return false;
  }
  return true;
}

void ResourceGovernor::TripBudget(const char* what, size_t used,
                                  size_t limit) {
  if (!status_.ok()) return;
  status_ = Status::ResourceExhausted(
      std::string("tuple budget exceeded: ") + what + " " +
      std::to_string(used) + " tuples, limit " + std::to_string(limit));
}

}  // namespace bryql
