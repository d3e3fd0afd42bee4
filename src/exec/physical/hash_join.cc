#include "exec/physical/hash_join.h"

#include "exec/physical/parallel.h"

namespace bryql {

HashJoinOp::HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                       std::vector<JoinKey> keys, JoinVariant variant,
                       PredicatePtr predicate, bool build_left,
                       size_t pad_arity, PhysicalContext ctx,
                       const SharedJoinBuild* shared_build)
    : left_(std::move(left)), right_(std::move(right)),
      keys_(std::move(keys)), variant_(variant),
      predicate_(std::move(predicate)), build_left_(build_left),
      pad_arity_(pad_arity), ctx_(ctx), shared_build_(shared_build),
      probe_cursor_(build_left ? right_.get() : left_.get()) {}

Status HashJoinOp::Open() {
  // The probe side opens first, the build side is drained second — a
  // fixed order, so nested blocking edges admit resources in the same
  // sequence on every run.
  PhysicalOperator* probe = build_left_ ? right_.get() : left_.get();
  PhysicalOperator* build = build_left_ ? left_.get() : right_.get();
  BRYQL_RETURN_NOT_OK(probe->Open());
  if (shared_build_ == nullptr) {  // else built by the phase
    BRYQL_RETURN_NOT_OK(build->Open());
    BRYQL_RETURN_NOT_OK(DrainBuild(build));
  }
  // An inner or semi join over an empty build side has an empty answer,
  // so its probe side is never pulled. Parallel workers decide from the
  // shared build, so every degree stops alike and counters stay equal.
  // Anti, outer and mark joins emit every probe tuple and stream on.
  const bool build_empty = shared_build_ != nullptr
                               ? shared_build_->empty()
                               : table_.empty() && key_set_.empty();
  probe_done_ = build_empty && (variant_ == JoinVariant::kInner ||
                                variant_ == JoinVariant::kSemi);
  return Status::Ok();
}

Status HashJoinOp::DrainBuild(PhysicalOperator* build) {
  switch (variant_) {
    case JoinVariant::kInner:
    case JoinVariant::kLeftOuter:
      return Drain(build, ctx_, "exec.hash.insert", DrainAdmission::kEvery,
                   [this](const Tuple& t) -> Result<bool> {
                     table_[JoinKeyOf(t, keys_, build_left_)].push_back(t);
                     return true;
                   });
    case JoinVariant::kSemi:
    case JoinVariant::kAnti:
    case JoinVariant::kMark:
      return Drain(build, ctx_, "exec.hash.insert", DrainAdmission::kFresh,
                   [this](const Tuple& t) -> Result<bool> {
                     return key_set_.insert(JoinKeyOf(t, keys_, build_left_))
                         .second;
                   });
  }
  return Status::Internal("unknown join variant");
}

const std::vector<Tuple>* HashJoinOp::FindMatches(const Tuple& key) const {
  if (shared_build_ != nullptr) return shared_build_->Find(key);
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

bool HashJoinOp::ContainsKey(const Tuple& key) const {
  if (shared_build_ != nullptr) return shared_build_->Contains(key);
  return key_set_.count(key) != 0;
}

Status HashJoinOp::NextBatch(TupleBatch* out) {
  out->Clear();
  switch (variant_) {
    case JoinVariant::kInner:
      return NextInner(out);
    case JoinVariant::kSemi:
    case JoinVariant::kAnti:
      return NextSemiAnti(out);
    case JoinVariant::kLeftOuter:
      return NextOuter(out);
    case JoinVariant::kMark:
      return NextMark(out);
  }
  return Status::Internal("unknown join variant");
}

Status HashJoinOp::NextInner(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    if (!ctx_.governor->Tick()) return ctx_.governor->status();
    if (matches_ != nullptr && match_index_ < matches_->size()) {
      const Tuple& partner = (*matches_)[match_index_++];
      // Output columns are always left ++ right, whichever side built.
      Tuple candidate = build_left_ ? partner.Concat(current_probe_)
                                    : current_probe_.Concat(partner);
      if (predicate_ == nullptr ||
          predicate_->Eval(candidate, &ctx_.stats->comparisons)) {
        out->Add(std::move(candidate));
      }
      continue;
    }
    matches_ = nullptr;
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    ++ctx_.stats->hash_probes;
    ctx_.stats->comparisons += keys_.size();
    const std::vector<Tuple>* found = FindMatches(
        JoinKeyOf(current_probe_, keys_, /*left=*/!build_left_));
    if (found != nullptr) {
      matches_ = found;
      match_index_ = 0;
    }
  }
  return Status::Ok();
}

Status HashJoinOp::NextSemiAnti(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    ++ctx_.stats->hash_probes;
    ctx_.stats->comparisons += keys_.size();
    bool found =
        ContainsKey(JoinKeyOf(current_probe_, keys_, /*left=*/true));
    if (found != (variant_ == JoinVariant::kAnti)) {
      *out->AddSlot() = current_probe_;
    }
  }
  return Status::Ok();
}

Status HashJoinOp::NextOuter(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    if (matches_ != nullptr && match_index_ < matches_->size()) {
      out->Add(current_probe_.Concat((*matches_)[match_index_++]));
      continue;
    }
    matches_ = nullptr;
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    // Definition 7 constraint: rows failing it are not probed and pad
    // directly with ∅.
    if (predicate_ != nullptr &&
        !predicate_->Eval(current_probe_, &ctx_.stats->comparisons)) {
      out->Add(PadWithNulls(current_probe_));
      continue;
    }
    ++ctx_.stats->hash_probes;
    ctx_.stats->comparisons += keys_.size();
    const std::vector<Tuple>* found =
        FindMatches(JoinKeyOf(current_probe_, keys_, /*left=*/true));
    if (found != nullptr) {
      matches_ = found;
      match_index_ = 0;
      continue;
    }
    out->Add(PadWithNulls(current_probe_));
  }
  return Status::Ok();
}

Status HashJoinOp::NextMark(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    bool marked = false;
    if (predicate_ == nullptr ||
        predicate_->Eval(current_probe_, &ctx_.stats->comparisons)) {
      ++ctx_.stats->hash_probes;
      ctx_.stats->comparisons += keys_.size();
      marked = ContainsKey(JoinKeyOf(current_probe_, keys_, /*left=*/true));
    }
    current_probe_.Append(marked ? Value::Mark() : Value::Null());
    *out->AddSlot() = current_probe_;
  }
  return Status::Ok();
}

Tuple HashJoinOp::PadWithNulls(const Tuple& t) const {
  Tuple padded = t;
  for (size_t i = 0; i < pad_arity_; ++i) padded.Append(Value::Null());
  return padded;
}

}  // namespace bryql
