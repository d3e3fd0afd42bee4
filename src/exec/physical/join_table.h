#ifndef BRYQL_EXEC_PHYSICAL_JOIN_TABLE_H_
#define BRYQL_EXEC_PHYSICAL_JOIN_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/row_id_index.h"
#include "storage/tuple.h"

namespace bryql {

/// The build side of an inner or outer hash join. Each build row is
/// stored once; a RowIdIndex maps each distinct key to the first row
/// holding it, and `next_` chains the rows of one key in build-insertion
/// order, so a probe walks its partners in the order they were built —
/// the order the residual's comparisons and first-witness pulls depend
/// on. Keys are the build rows' `key_columns`, hashed and compared in
/// place against the probe tuple's key columns.
class JoinTable {
 public:
  static constexpr uint32_t kEnd = RowIdIndex::kNoRow;

  JoinTable() = default;
  explicit JoinTable(std::vector<size_t> key_columns)
      : key_columns_(std::move(key_columns)) {}

  bool empty() const { return rows_.empty(); }

  /// Appends a build row.
  Status Insert(const Tuple& row) {
    const RowIdIndex::Entry head = index_.FindOrInsert(
        row.HashOf(key_columns_), rows_.size(), [&](uint32_t r) {
          return row.ColumnsEqual(key_columns_, rows_[r], key_columns_);
        });
    if (head.row == RowIdIndex::kNoRow) {
      return Status::ResourceExhausted(
          "hash join build side exceeds 32-bit row ids");
    }
    const uint32_t id = static_cast<uint32_t>(rows_.size());
    rows_.push_back(row);
    next_.push_back(kEnd);
    tail_.push_back(id);
    if (!head.inserted) {
      next_[tail_[head.row]] = id;
      tail_[head.row] = id;
    }
    return Status::Ok();
  }

  /// The first build row whose key equals `probe`'s `probe_columns`, or
  /// kEnd; `hash` must be `probe.HashOf(probe_columns)`.
  uint32_t Find(const Tuple& probe, const std::vector<size_t>& probe_columns,
                size_t hash) const {
    return index_.Find(hash, [&](uint32_t r) {
      return probe.ColumnsEqual(probe_columns, rows_[r], key_columns_);
    });
  }

  const Tuple& row(uint32_t id) const { return rows_[id]; }
  /// The next row of `id`'s key chain, or kEnd.
  uint32_t next(uint32_t id) const { return next_[id]; }

 private:
  std::vector<size_t> key_columns_;
  std::vector<Tuple> rows_;
  /// Per row: the next row with the same key, or kEnd.
  std::vector<uint32_t> next_;
  /// Per chain head: the chain's last row (unused for other rows).
  std::vector<uint32_t> tail_;
  RowIdIndex index_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_JOIN_TABLE_H_
