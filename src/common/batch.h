#ifndef BRYQL_COMMON_BATCH_H_
#define BRYQL_COMMON_BATCH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "storage/tuple.h"

namespace bryql {

/// Default number of tuples a physical operator transfers per NextBatch
/// call. 1024 amortizes the per-call virtual dispatch to ~1/1000th of a
/// capacity-1 pull while a batch of small tuples (a few dozen bytes each)
/// still fits comfortably in L2.
inline constexpr size_t kDefaultBatchSize = 1024;

/// A bounded buffer of tuples — the unit of data flow between physical
/// operators. The capacity is a *request*: producers fill at most
/// `capacity()` tuples per NextBatch call, and consumers that need early
/// termination (the paper's first-witness non-emptiness test, §3.2) shrink
/// it — a capacity-1 batch degrades gracefully to tuple-at-a-time pulls,
/// so a non-emptiness test admits exactly the tuples up to and including
/// its first witness.
///
/// Slots are recycled: Clear() resets the logical size but keeps every
/// Tuple object alive, and AddSlot() hands the next recycled slot back to
/// the producer. A slot holds a tuple of arity ≤ 2 in place; only a slot
/// that once held a wider tuple keeps a heap array, which copy-assigning
/// into it reuses. Either way a steady-state batch pipeline performs no
/// per-tuple allocations.
class TupleBatch {
 public:
  explicit TupleBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? 1 : capacity) {
    tuples_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// Logical reset; slots (and their storage) stay warm for reuse.
  void Clear() { size_ = 0; }

  /// The next recycled output slot. Prefer `*AddSlot() = tuple` (copy
  /// assignment) over Add(Tuple) when the source tuple outlives the call:
  /// assignment reuses a warm slot's heap array, a move of a wide tuple
  /// replaces it. A slot's address is stable only until the next AddSlot.
  Tuple* AddSlot() {
    if (size_ == tuples_.size()) tuples_.emplace_back();
    return &tuples_[size_++];
  }

  void Add(Tuple tuple) { *AddSlot() = std::move(tuple); }

  /// Gives the last slot back (a candidate that failed a residual); the
  /// slot keeps its storage for the next AddSlot.
  void DropLast() { --size_; }

  const Tuple& operator[](size_t i) const { return tuples_[i]; }
  Tuple& operator[](size_t i) { return tuples_[i]; }

 private:
  size_t capacity_;
  size_t size_ = 0;
  std::vector<Tuple> tuples_;
};

}  // namespace bryql

#endif  // BRYQL_COMMON_BATCH_H_
