#ifndef BRYQL_STORAGE_RELATION_H_
#define BRYQL_STORAGE_RELATION_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/columnar/column_store.h"
#include "storage/row_id_index.h"
#include "storage/tuple.h"

namespace bryql {

/// A relation under set semantics: a duplicate-free collection of tuples of
/// one arity. Insertion order is preserved for deterministic iteration and
/// readable test output. Each row is stored once, in rows(); membership
/// goes through a flat RowIdIndex of positions in rows(), so lookups hash
/// and compare in place and a tuple is copied only when it is new.
///
/// The relational model of the paper is pure sets (domain calculus), so the
/// engine works with Relation everywhere — base tables and intermediate
/// results alike.
///
/// Set semantics rest on Value equality being reflexive, so NaN is not a
/// domain value: a NaN row is unequal to itself and would be neither
/// deduplicated nor found. The CSV loader rejects NaN cells; callers that
/// build tuples directly must not insert NaN.
class Relation {
 public:
  /// An empty relation of the given arity. Arity 0 relations model the two
  /// boolean constants: {} is false, {()} is true.
  explicit Relation(size_t arity = 0);

  /// Copies deep-copy the optional column store so the copy stays
  /// self-contained (Database hands out copies of cached domains, tests
  /// copy fixtures); moves transfer it.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// Builds a relation from rows; duplicate rows collapse. All rows must
  /// have the same arity.
  static Result<Relation> FromRows(std::vector<Tuple> rows);

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Inserts a tuple; returns true when the tuple was new. A tuple whose
  /// arity differs from the relation's is rejected with kInvalidArgument —
  /// never inserted, never asserted on — so malformed input cannot corrupt
  /// the row store.
  /// The row limit of 32-bit row ids: beyond it Insert returns
  /// kResourceExhausted.
  Result<bool> Insert(const Tuple& tuple);
  Result<bool> Insert(Tuple&& tuple);

  bool Contains(const Tuple& tuple) const {
    return index_.Find(tuple.Hash(), [&](uint32_t r) {
             return rows_[r] == tuple;
           }) != RowIdIndex::kNoRow;
  }

  /// Inserts the projection of `tuple` onto `columns` (which must number
  /// arity()), hashed and compared in place: the projected tuple is built
  /// only when it is new, in place at the end of rows(). Join key sets and
  /// projection dedup use this. `tuple` must not be a row of this
  /// relation (appending may move it).
  Result<bool> InsertProjection(const Tuple& tuple,
                                const std::vector<size_t>& columns);
  /// True when the projection of `tuple` onto `columns` is a row; `hash`
  /// must be `tuple.HashOf(columns)`.
  bool ContainsProjection(const Tuple& tuple,
                          const std::vector<size_t>& columns,
                          size_t hash) const {
    return index_.Find(hash, [&](uint32_t r) {
             return tuple.ColumnsEqual(columns, rows_[r], identity_);
           }) != RowIdIndex::kNoRow;
  }

  /// Tuples in insertion order.
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Rows sorted by value — canonical order for comparisons in tests.
  std::vector<Tuple> SortedRows() const;

  /// Set equality (order-insensitive).
  friend bool operator==(const Relation& a, const Relation& b);
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }

  /// Multi-line rendering, one tuple per line, in insertion order.
  std::string ToString() const;

  /// --- secondary hash indexes -------------------------------------
  /// A per-column hash index maps a value to the row positions holding
  /// it. Indexes are maintained incrementally by Insert. Both evaluation
  /// engines exploit them: the streaming executor turns
  /// σ_{col=val}(scan) into an index lookup, and the Figure 1
  /// interpreter enumerates atoms through the index of a bound argument.

  /// Builds (or rebuilds) the index on `column`; kInvalidArgument when
  /// `column` is out of range for this arity.
  Status BuildIndex(size_t column);
  bool HasIndex(size_t column) const {
    return column_indexes_.count(column) != 0;
  }
  /// Row positions whose `column` equals `value`. Empty when none match —
  /// or when no index exists on `column`, so callers that forgot
  /// BuildIndex degrade to "no index hits", not undefined behaviour.
  const std::vector<size_t>& Matches(size_t column,
                                     const Value& value) const;

  /// --- columnar representation ------------------------------------
  /// An optional column-major mirror of rows(), built on demand and then
  /// maintained incrementally by Insert. The row store stays
  /// authoritative; the column store is an acceleration structure with
  /// the invariant rows()[i] == columnar row i.

  /// Builds (or rebuilds) the column store from the current rows.
  void BuildColumnStore();
  /// The column store, or nullptr when BuildColumnStore was never called.
  const ColumnStore* column_store() const { return columnar_.get(); }

 private:
  using ColumnIndex = std::unordered_map<Value, std::vector<size_t>,
                                         ValueHash>;

  template <typename T>
  Result<bool> InsertRow(T&& tuple);
  /// Secondary indexes and the column store follow the row just appended
  /// to rows_.
  void IndexLastRow();

  size_t arity_;
  std::vector<Tuple> rows_;
  RowIdIndex index_;
  /// 0, 1, ..., arity - 1: the stored row's side of ContainsProjection.
  std::vector<size_t> identity_;
  std::map<size_t, ColumnIndex> column_indexes_;
  std::unique_ptr<ColumnStore> columnar_;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_RELATION_H_
