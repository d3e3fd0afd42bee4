#ifndef BRYQL_STORAGE_TUPLE_H_
#define BRYQL_STORAGE_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "common/value.h"

namespace bryql {

/// A fixed-arity row of domain values. Column naming lives in Schema,
/// positional access everywhere else, which matches the paper's positional
/// algebra (attributes 1..n).
///
/// Small-buffer representation, 40 bytes: a size, a capacity and a union
/// of two in-place values or a pointer to one heap array. Tuples of arity
/// ≤ 2 — nearly every key, join row and dedup entry of the paper's plans —
/// never touch the heap; wider ones spill to a heap array that grows by
/// doubling and is kept by Clear() and by assignment, so a warm slot is
/// rebuilt without allocating. Value is trivially copyable, so copies are
/// plain memory copies.
///
/// A reference, pointer or span into a tuple's values lives only as long
/// as the tuple stays where it is: moving it — including a vector of
/// tuples reallocating — moves in-place values to a new address.
class Tuple {
 public:
  Tuple() : size_(0), capacity_(kInline) {}
  explicit Tuple(std::span<const Value> values) : Tuple() {
    AssignValues(values.data(), values.size());
  }
  Tuple(std::initializer_list<Value> values) : Tuple() {
    AssignValues(values.begin(), values.size());
  }

  Tuple(const Tuple& other) : Tuple() { CopyFrom(other); }
  Tuple(Tuple&& other) noexcept : Tuple() { Steal(other); }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  /// A heap buffer moves over; in-place values are copied into this
  /// tuple's own storage. Either way `other` is left empty and reusable.
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      if (other.on_heap()) {
        Release();
        Steal(other);
      } else {
        CopyFrom(other);
        other.size_ = 0;
      }
    }
    return *this;
  }
  ~Tuple() { Release(); }

  size_t arity() const { return size_; }
  const Value& at(size_t i) const { return data()[i]; }
  std::span<const Value> values() const { return {data(), size_}; }

  /// Appends a value; used by operators assembling wider tuples.
  void Append(const Value& v) {
    if (size_ == capacity_) Grow(size_ + 1, /*keep=*/true);
    data()[size_++] = v;
  }

  /// Empties the tuple but keeps its storage, so a warm slot can be
  /// rebuilt in place (the columnar gather path).
  void Clear() { size_ = 0; }

  /// The concatenation (*this, other).
  Tuple Concat(const Tuple& other) const {
    Tuple out;
    out.AssignConcat(*this, other);
    return out;
  }

  /// Rebuilds this tuple as (a, b) in place, reusing its storage — the
  /// hash join assembles its outputs in warm batch slots this way.
  /// Neither `a` nor `b` may be *this.
  void AssignConcat(const Tuple& a, const Tuple& b) {
    Value* out = Reset(a.size_ + b.size_);
    CopyValues(out, a.data(), a.size_);
    CopyValues(out + a.size_, b.data(), b.size_);
  }

  /// Rebuilds this tuple in place as `a` followed by `count` copies of
  /// `fill` (∅ padding of outer joins, the ∅/⊥ column of mark joins).
  /// `a` may not be *this.
  void AssignPadded(const Tuple& a, size_t count, const Value& fill) {
    Value* out = Reset(a.size_ + count);
    CopyValues(out, a.data(), a.size_);
    for (size_t i = 0; i < count; ++i) out[a.size_ + i] = fill;
  }

  /// Rebuilds this tuple in place as the positional projection
  /// (src[indices[0]], ...). Indices may repeat or reorder; `src` may not
  /// be *this.
  void AssignProject(const Tuple& src, const std::vector<size_t>& indices) {
    Value* out = Reset(indices.size());
    const Value* in = src.data();
    for (size_t i = 0; i < indices.size(); ++i) out[i] = in[indices[i]];
  }

  /// The positional projection (values[indices[0]], ...).
  Tuple Project(const std::vector<size_t>& indices) const {
    Tuple out;
    out.AssignProject(*this, indices);
    return out;
  }

  /// Renders "(v1, v2, ...)".
  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    if (a.size_ != b.size_) return false;
    const Value* x = a.data();
    const Value* y = b.data();
    for (uint32_t i = 0; i < a.size_; ++i) {
      if (x[i] != y[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  /// Lexicographic, a proper prefix first.
  friend bool operator<(const Tuple& a, const Tuple& b);

  size_t Hash() const {
    size_t h = kHashSeed;
    const Value* v = data();
    for (uint32_t i = 0; i < size_; ++i) h = HashCombine(h, v[i].Hash());
    return h;
  }

  /// Project(columns).Hash(), computed in place without building the
  /// projected tuple — how hash keys are hashed.
  size_t HashOf(const std::vector<size_t>& columns) const {
    size_t h = kHashSeed;
    const Value* v = data();
    for (size_t c : columns) h = HashCombine(h, v[c].Hash());
    return h;
  }

  /// True when this tuple's `columns` equal `other`'s `other_columns`,
  /// position by position (equal lengths) — in-place key equality.
  bool ColumnsEqual(const std::vector<size_t>& columns, const Tuple& other,
                    const std::vector<size_t>& other_columns) const {
    const Value* x = data();
    const Value* y = other.data();
    for (size_t i = 0; i < columns.size(); ++i) {
      if (x[columns[i]] != y[other_columns[i]]) return false;
    }
    return true;
  }

 private:
  static constexpr size_t kHashSeed = 0x51ed270b;
  static constexpr uint32_t kInline = 2;

  bool on_heap() const { return capacity_ > kInline; }
  const Value* data() const { return on_heap() ? heap_ : inline_; }
  Value* data() { return on_heap() ? heap_ : inline_; }

  static void CopyValues(Value* out, const Value* in, size_t n) {
    if (n != 0) std::memcpy(out, in, n * sizeof(Value));
  }

  /// Sets the size to `n`, growing the storage (without keeping the old
  /// values) when it is too small; returns the storage to fill.
  Value* Reset(size_t n) {
    if (n > capacity_) Grow(n, /*keep=*/false);
    size_ = static_cast<uint32_t>(n);
    return data();
  }
  void AssignValues(const Value* values, size_t n) {
    CopyValues(Reset(n), values, n);
  }
  /// AssignValues(other's values). Both sides always have room for
  /// kInline values, so a narrow tuple is copied as a fixed-width block
  /// (any unused slot's bytes ride along unread) instead of a sized copy.
  void CopyFrom(const Tuple& other) {
    if (other.size_ <= kInline) {
      std::memcpy(Reset(other.size_), other.data(), kInline * sizeof(Value));
    } else {
      Reset(other.size_);  // wider than kInline: both arrays are on the heap
      CopyValues(heap_, other.heap_, other.size_);
    }
  }

  /// Moves to a heap array of at least `n` values (and at least twice the
  /// old capacity), copying the current values when `keep`.
  void Grow(size_t n, bool keep);
  void Release();
  /// Takes `other`'s contents, leaving it empty. Any heap array this tuple
  /// held must already be released.
  void Steal(Tuple& other) {
    size_ = other.size_;
    if (other.on_heap()) {
      capacity_ = other.capacity_;
      heap_ = other.heap_;
      other.capacity_ = kInline;
    } else {
      std::memcpy(inline_, other.inline_, sizeof(inline_));
    }
    other.size_ = 0;
  }

  uint32_t size_;
  /// kInline while the values are in place; the heap array's length once
  /// they have spilled.
  uint32_t capacity_;
  union {
    Value inline_[kInline];
    Value* heap_;
  };
};

static_assert(sizeof(Tuple) == 40, "two in-place values plus size/capacity");

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_TUPLE_H_
