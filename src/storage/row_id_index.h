#ifndef BRYQL_STORAGE_ROW_ID_INDEX_H_
#define BRYQL_STORAGE_ROW_ID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bryql {

/// A flat, open-addressed hash index of row ids. Each slot holds a 32-bit
/// hash tag and a 32-bit row id; the rows themselves live elsewhere (a
/// Relation's row vector, a join table's build rows), so every row is
/// stored once. Callers hash and compare their keys in place: Find and
/// FindOrInsert take the key's hash and an `eq(row_id)` predicate that
/// compares the stored row with the probe key, so no key object is ever
/// built. Linear probing; the table doubles before it is half full.
class RowIdIndex {
 public:
  /// Marks an empty slot, so row ids run from 0 to kMaxRows - 1.
  static constexpr uint32_t kNoRow = UINT32_MAX;
  static constexpr size_t kMaxRows = kNoRow;

  RowIdIndex() = default;
  RowIdIndex(const RowIdIndex&) = default;
  RowIdIndex& operator=(const RowIdIndex&) = default;
  RowIdIndex(RowIdIndex&& other) noexcept
      : slots_(std::move(other.slots_)), size_(std::exchange(other.size_, 0)) {}
  RowIdIndex& operator=(RowIdIndex&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    other.slots_.clear();
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The id of an entry with hash `hash` for which `eq(id)` holds, or
  /// kNoRow.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNoRow;
    const uint32_t tag = TagOf(hash);
    const size_t mask = slots_.size() - 1;
    for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
      const Slot& slot = slots_[pos];
      if (slot.row == kNoRow) return kNoRow;
      if (slot.tag == tag && eq(slot.row)) return slot.row;
    }
  }

  /// The id of the entry with hash `hash` for which `eq(id)` holds, or —
  /// when there is none — a new entry for `row`, which the caller then
  /// stores at that position. `inserted` tells the two apart. A `row` at
  /// or beyond kMaxRows is never truncated into a colliding id: nothing is
  /// inserted and `row` comes back as kNoRow.
  struct Entry {
    uint32_t row;
    bool inserted;
  };
  template <typename Eq>
  Entry FindOrInsert(size_t hash, size_t row, Eq&& eq) {
    const uint32_t found = Find(hash, eq);
    if (found != kNoRow) return {found, false};
    if (row >= kMaxRows) return {kNoRow, false};
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Place(TagOf(hash), static_cast<uint32_t>(row));
    ++size_;
    return {static_cast<uint32_t>(row), true};
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t row = kNoRow;
  };

  /// Fibonacci mixing, so weak low bits of `hash` still spread.
  static uint32_t TagOf(size_t hash) {
    return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  void Place(uint32_t tag, uint32_t row) {
    const size_t mask = slots_.size() - 1;
    size_t pos = tag & mask;
    while (slots_[pos].row != kNoRow) pos = (pos + 1) & mask;
    slots_[pos] = Slot{tag, row};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot& slot : old) {
      if (slot.row != kNoRow) Place(slot.tag, slot.row);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_ROW_ID_INDEX_H_
