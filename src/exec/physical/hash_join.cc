#include "exec/physical/hash_join.h"

#include "exec/physical/parallel.h"

namespace bryql {

HashJoinOp::HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                       std::vector<JoinKey> keys, JoinVariant variant,
                       PredicatePtr predicate, bool build_left,
                       size_t pad_arity, PhysicalContext ctx,
                       const SharedJoinBuild* shared_build)
    : left_(std::move(left)), right_(std::move(right)), variant_(variant),
      predicate_(std::move(predicate)), build_left_(build_left),
      pad_arity_(pad_arity), ctx_(ctx), shared_build_(shared_build),
      probe_cursor_(build_left ? right_.get() : left_.get()),
      key_set_(keys.size()) {
  for (const JoinKey& k : keys) {
    build_columns_.push_back(build_left ? k.left : k.right);
    probe_columns_.push_back(build_left ? k.right : k.left);
  }
  table_ = JoinTable(build_columns_);
}

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
                     BRYQL_RETURN_NOT_OK(
                         table_.Insert(t, t.HashOf(build_columns_)));
                     return true;
                   });
    case JoinVariant::kSemi:
    case JoinVariant::kAnti:
    case JoinVariant::kMark:
      return Drain(build, ctx_, "exec.hash.insert", DrainAdmission::kFresh,
                   [this](const Tuple& t) -> Result<bool> {
                     return key_set_.InsertProjection(t, build_columns_);
                   });
  }
  return Status::Internal("unknown join variant");
}

void HashJoinOp::ProbeTable() {
  ++ctx_.stats->hash_probes;
  ctx_.stats->comparisons += probe_columns_.size();
  const size_t hash = current_probe_.HashOf(probe_columns_);
  match_table_ =
      shared_build_ != nullptr ? &shared_build_->table(hash) : &table_;
  match_row_ = match_table_->Find(current_probe_, probe_columns_, hash);
}

bool HashJoinOp::ProbeKeys() {
  ++ctx_.stats->hash_probes;
  ctx_.stats->comparisons += probe_columns_.size();
  const size_t hash = current_probe_.HashOf(probe_columns_);
  const Relation& keys =
      shared_build_ != nullptr ? shared_build_->keys(hash) : key_set_;
  return keys.ContainsProjection(current_probe_, probe_columns_, hash);
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
    if (match_row_ != JoinTable::kEnd) {
      const Tuple& partner = match_table_->row(match_row_);
      match_row_ = match_table_->next(match_row_);
      // Output columns are always left ++ right, whichever side built.
      Tuple* candidate = out->AddSlot();
      if (build_left_) {
        candidate->AssignConcat(partner, current_probe_);
      } else {
        candidate->AssignConcat(current_probe_, partner);
      }
      if (predicate_ != nullptr &&
          !predicate_->Eval(*candidate, &ctx_.stats->comparisons)) {
        out->DropLast();
      }
      continue;
    }
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    ProbeTable();
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
    if (ProbeKeys() != (variant_ == JoinVariant::kAnti)) {
      *out->AddSlot() = current_probe_;
    }
  }
  return Status::Ok();
}

Status HashJoinOp::NextOuter(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    if (match_row_ != JoinTable::kEnd) {
      out->AddSlot()->AssignConcat(current_probe_,
                                   match_table_->row(match_row_));
      match_row_ = match_table_->next(match_row_);
      continue;
    }
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    // Definition 7 constraint: rows failing it are not probed and pad
    // directly with ∅.
    if (predicate_ == nullptr ||
        predicate_->Eval(current_probe_, &ctx_.stats->comparisons)) {
      ProbeTable();
      if (match_row_ != JoinTable::kEnd) continue;
    }
    out->AddSlot()->AssignPadded(current_probe_, pad_arity_, Value::Null());
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
    const bool marked =
        (predicate_ == nullptr ||
         predicate_->Eval(current_probe_, &ctx_.stats->comparisons)) &&
        ProbeKeys();
    out->AddSlot()->AssignPadded(current_probe_, 1,
                                 marked ? Value::Mark() : Value::Null());
  }
  return Status::Ok();
}

}  // namespace bryql
