#include "exec/physical/division.h"

#include <cstdint>
#include <unordered_map>

namespace bryql {

Status DivisionOp::Open() {
  BRYQL_RETURN_NOT_OK(left_->Open());
  BRYQL_RETURN_NOT_OK(right_->Open());
  const size_t p = left_arity_;
  const size_t q = right_arity_;
  TupleSet divisor;
  BRYQL_RETURN_NOT_OK(Drain(right_.get(), ctx_, "exec.materialize.insert",
                            DrainAdmission::kFresh,
                            [&divisor](const Tuple& t) -> Result<bool> {
                              return divisor.insert(t).second;
                            }));
  std::vector<size_t> prefix_cols, suffix_cols;
  for (size_t i = 0; i < p - q; ++i) prefix_cols.push_back(i);
  for (size_t i = p - q; i < p; ++i) suffix_cols.push_back(i);
  std::unordered_map<Tuple, TupleSet, TupleHash> groups;
  BRYQL_RETURN_NOT_OK(Drain(
      left_.get(), ctx_, "exec.materialize.insert", DrainAdmission::kEvery,
      [&](const Tuple& t) -> Result<bool> {
        Tuple prefix = t.Project(prefix_cols);
        Tuple suffix = t.Project(suffix_cols);
        ++ctx_.stats->hash_probes;
        if (!divisor.count(suffix)) {
          groups.try_emplace(std::move(prefix));
          return false;
        }
        return groups[std::move(prefix)].insert(std::move(suffix)).second;
      }));
  result_ = Relation(p - q);
  for (auto& [prefix, matched] : groups) {
    if (matched.size() == divisor.size()) {
      BRYQL_RETURN_NOT_OK(result_.Insert(prefix).status());
    }
  }
  return Status::Ok();
}

Status GroupDivisionOp::Open() {
  BRYQL_RETURN_NOT_OK(left_->Open());
  BRYQL_RETURN_NOT_OK(right_->Open());
  const size_t p = left_arity_;
  const size_t q = right_arity_;
  const size_t g = group_arity_;
  const size_t keep_arity = p - q;  // dividend = [keep, group, value]
  std::vector<size_t> t_group_cols, t_value_cols;
  for (size_t i = 0; i < g; ++i) t_group_cols.push_back(i);
  for (size_t i = g; i < q; ++i) t_value_cols.push_back(i);
  std::vector<size_t> d_prefix_cols, d_value_cols, d_group_cols;
  for (size_t i = 0; i < keep_arity + g; ++i) d_prefix_cols.push_back(i);
  for (size_t i = keep_arity; i < keep_arity + g; ++i) {
    d_group_cols.push_back(i);
  }
  for (size_t i = keep_arity + g; i < p; ++i) d_value_cols.push_back(i);

  // Group the divisor: group key → set of values.
  std::unordered_map<Tuple, TupleSet, TupleHash> divisor_groups;
  BRYQL_RETURN_NOT_OK(Drain(
      right_.get(), ctx_, "exec.materialize.insert", DrainAdmission::kEvery,
      [&](const Tuple& t) -> Result<bool> {
        return divisor_groups[t.Project(t_group_cols)]
            .insert(t.Project(t_value_cols))
            .second;
      }));
  // Collect matched values per (keep, group) prefix of the dividend.
  std::unordered_map<Tuple, TupleSet, TupleHash> matched;
  BRYQL_RETURN_NOT_OK(Drain(
      left_.get(), ctx_, "exec.materialize.insert", DrainAdmission::kEvery,
      [&](const Tuple& t) -> Result<bool> {
        ++ctx_.stats->hash_probes;
        auto git = divisor_groups.find(t.Project(d_group_cols));
        if (git == divisor_groups.end()) return false;
        Tuple value = t.Project(d_value_cols);
        if (!git->second.count(value)) return false;
        return matched[t.Project(d_prefix_cols)].insert(std::move(value))
            .second;
      }));
  result_ = Relation(keep_arity + g);
  for (auto& [prefix, values] : matched) {
    // The group is the suffix of the prefix tuple.
    std::vector<size_t> group_in_prefix;
    for (size_t i = keep_arity; i < keep_arity + g; ++i) {
      group_in_prefix.push_back(i);
    }
    auto git = divisor_groups.find(prefix.Project(group_in_prefix));
    if (git != divisor_groups.end() && values.size() == git->second.size()) {
      BRYQL_RETURN_NOT_OK(result_.Insert(prefix).status());
    }
  }
  return Status::Ok();
}

Status GroupCountOp::Open() {
  BRYQL_RETURN_NOT_OK(child_->Open());
  const size_t g = group_arity_;
  std::vector<size_t> group_cols;
  for (size_t i = 0; i < g; ++i) group_cols.push_back(i);
  std::unordered_map<Tuple, int64_t, TupleHash> counts;
  BRYQL_RETURN_NOT_OK(Drain(child_.get(), ctx_, "exec.materialize.insert",
                            DrainAdmission::kEvery,
                            [&](const Tuple& t) -> Result<bool> {
                              ++counts[t.Project(group_cols)];
                              return true;
                            }));
  result_ = Relation(g + 1);
  for (auto& [group, count] : counts) {
    Tuple row = group;
    row.Append(Value::Int(count));
    BRYQL_RETURN_NOT_OK(result_.Insert(std::move(row)).status());
  }
  return Status::Ok();
}

}  // namespace bryql
