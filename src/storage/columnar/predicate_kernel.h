#ifndef BRYQL_STORAGE_COLUMNAR_PREDICATE_KERNEL_H_
#define BRYQL_STORAGE_COLUMNAR_PREDICATE_KERNEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "algebra/predicate.h"
#include "storage/columnar/column_store.h"

namespace bryql {

/// Evaluates one Predicate directly on ColumnStore segments.
///
/// Three levels, each a strict refinement of the last:
///
///   1. ZoneTest(seg) consults only the zone maps: kNone means no row of
///      the segment can match (the scan skips it wholesale — zone-map
///      pruning), kAll means every row matches (the scan emits without
///      touching a single value), kMaybe means the rows must be looked at.
///   2. EvalRange(begin, end, sel) runs the vectorized kernels over a row
///      range inside one segment, appending matching row positions to the
///      selection vector. Typed tight loops handle the common uniform
///      cases (int/double comparisons, dictionary-coded string
///      comparisons via a per-predicate match table built once per
///      distinct string); every other case falls back per row to
///      CompareValues on reconstructed Values, so the kernel's verdict is
///      bit-identical to Predicate::Eval by construction.
///   3. EvalRow(row) is the row-at-a-time form used by capacity-1
///      (first-witness) pulls, where evaluating ahead of the consumer
///      would break admission parity with the row engine.
///
/// Comparison accounting is honest about work performed: the typed loops
/// and fallbacks count one comparison per row they touch (like the row
/// engine), dictionary match tables count one comparison per distinct
/// string (built once, then reused per row — the vectorized win the
/// paper's cost metric should see), and zone tests count nothing (they
/// read per-segment metadata, not values).
///
/// A kernel borrows `store` and `pred` (both must outlive it) and holds
/// per-scan scratch (match tables), so instantiate one per operator, not
/// per batch.
class PredicateKernel {
 public:
  PredicateKernel(const ColumnStore* store, const Predicate* pred)
      : store_(store), pred_(pred) {}

  enum class Zone { kNone, kMaybe, kAll };

  /// Zone-map verdict for segment `seg` — conservative: kNone/kAll are
  /// only claimed when the zone maps prove them.
  Zone ZoneTest(size_t seg) const;

  /// Appends the positions of matching rows in [begin, end) — a range
  /// that must lie within one segment — to `*sel`.
  void EvalRange(size_t begin, size_t end, std::vector<size_t>* sel,
                 size_t* comparisons);

  /// Single-row evaluation, identical in result to Predicate::Eval on the
  /// materialized tuple.
  bool EvalRow(size_t row, size_t* comparisons);

 private:
  Zone ZoneTestNode(const Predicate* p, size_t seg) const;
  bool EvalRowNode(const Predicate* p, size_t row, size_t* comparisons);
  /// Evaluates `p` over [begin, end) into mask[0 .. end-begin).
  void EvalMask(const Predicate* p, size_t begin, size_t end,
                std::vector<uint8_t>* mask, size_t* comparisons);
  /// Match table for a ColVal string predicate: entry c answers "does
  /// dictionary code c satisfy the predicate". Built on first use,
  /// counting one comparison per dictionary entry, and cached for the
  /// kernel's lifetime.
  const std::vector<uint8_t>& DictMatches(const Predicate* p,
                                          const ColumnStore::Column& col,
                                          size_t* comparisons);

  const ColumnStore* store_;
  const Predicate* pred_;
  std::unordered_map<const Predicate*, std::vector<uint8_t>> dict_match_;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_COLUMNAR_PREDICATE_KERNEL_H_
