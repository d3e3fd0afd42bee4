#ifndef BRYQL_STORAGE_TUPLE_H_
#define BRYQL_STORAGE_TUPLE_H_

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "common/value.h"

namespace bryql {

/// A fixed-arity row of domain values. Tuples are plain value vectors:
/// column naming lives in Schema, positional access everywhere else, which
/// matches the paper's positional algebra (attributes 1..n).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// Appends a value; used by operators assembling wider tuples.
  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Empties the tuple but keeps its storage, so a warm slot can be
  /// rebuilt in place (the columnar gather path).
  void Clear() { values_.clear(); }

  /// The concatenation (*this, other).
  Tuple Concat(const Tuple& other) const;

  /// Rebuilds this tuple as (a, b) in place. Values are copy-assigned
  /// over the existing ones, so a warm batch slot keeps its storage — the
  /// hash join assembles its outputs this way.
  void AssignConcat(const Tuple& a, const Tuple& b) {
    values_.resize(a.arity() + b.arity());
    std::copy(a.values_.begin(), a.values_.end(), values_.begin());
    std::copy(b.values_.begin(), b.values_.end(),
              values_.begin() + a.arity());
  }

  /// Rebuilds this tuple in place as `a` followed by `count` copies of
  /// `fill` (∅ padding of outer joins, the ∅/⊥ column of mark joins).
  void AssignPadded(const Tuple& a, size_t count, const Value& fill) {
    values_.resize(a.arity() + count);
    std::copy(a.values_.begin(), a.values_.end(), values_.begin());
    std::fill(values_.begin() + a.arity(), values_.end(), fill);
  }

  /// The positional projection (values[indices[0]], ...). Indices may
  /// repeat or reorder.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// Renders "(v1, v2, ...)".
  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.values_ < b.values_;
  }

  size_t Hash() const {
    size_t h = kHashSeed;
    for (const Value& v : values_) h = HashCombine(h, v.Hash());
    return h;
  }

  /// Project(columns).Hash(), computed in place without building the
  /// projected tuple — how hash keys are hashed.
  size_t HashOf(const std::vector<size_t>& columns) const {
    size_t h = kHashSeed;
    for (size_t c : columns) h = HashCombine(h, values_[c].Hash());
    return h;
  }

  /// True when this tuple's `columns` equal `other`'s `other_columns`,
  /// position by position (equal lengths) — in-place key equality.
  bool ColumnsEqual(const std::vector<size_t>& columns, const Tuple& other,
                    const std::vector<size_t>& other_columns) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (values_[columns[i]] != other.values_[other_columns[i]]) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr size_t kHashSeed = 0x51ed270b;

  std::vector<Value> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_TUPLE_H_
