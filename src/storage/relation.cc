#include "storage/relation.h"

#include <algorithm>
#include <numeric>

namespace bryql {

namespace {

Status TooManyRows() {
  return Status::ResourceExhausted(
      "Insert: a relation holds at most " +
      std::to_string(RowIdIndex::kMaxRows) + " rows (32-bit row ids)");
}

Status ArityMismatch(const char* what, size_t got, size_t arity) {
  return Status::InvalidArgument(std::string(what) + ": tuple arity " +
                                 std::to_string(got) +
                                 " does not match relation arity " +
                                 std::to_string(arity));
}

}  // namespace

Relation::Relation(size_t arity) : arity_(arity), identity_(arity) {
  std::iota(identity_.begin(), identity_.end(), size_t{0});
}

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      rows_(other.rows_),
      index_(other.index_),
      identity_(other.identity_),
      column_indexes_(other.column_indexes_),
      columnar_(other.columnar_
                    ? std::make_unique<ColumnStore>(*other.columnar_)
                    : nullptr) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  rows_ = other.rows_;
  index_ = other.index_;
  identity_ = other.identity_;
  column_indexes_ = other.column_indexes_;
  columnar_ = other.columnar_
                  ? std::make_unique<ColumnStore>(*other.columnar_)
                  : nullptr;
  return *this;
}

Result<Relation> Relation::FromRows(std::vector<Tuple> rows) {
  if (rows.empty()) return Relation(0);
  Relation rel(rows.front().arity());
  for (Tuple& t : rows) {
    if (t.arity() != rel.arity()) {
      return Status::InvalidArgument(
          "FromRows: mixed arities " + std::to_string(rel.arity()) + " and " +
          std::to_string(t.arity()));
    }
    BRYQL_RETURN_NOT_OK(rel.Insert(std::move(t)).status());
  }
  return rel;
}

Result<bool> Relation::Insert(const Tuple& tuple) { return InsertRow(tuple); }

Result<bool> Relation::Insert(Tuple&& tuple) {
  return InsertRow(std::move(tuple));
}

template <typename T>
Result<bool> Relation::InsertRow(T&& tuple) {
  if (tuple.arity() != arity_) {
    return ArityMismatch("Insert", tuple.arity(), arity_);
  }
  const RowIdIndex::Entry entry =
      index_.FindOrInsert(tuple.Hash(), rows_.size(),
                          [&](uint32_t r) { return rows_[r] == tuple; });
  if (!entry.inserted) {
    if (entry.row == RowIdIndex::kNoRow) return TooManyRows();
    return false;
  }
  rows_.push_back(std::forward<T>(tuple));
  IndexLastRow();
  return true;
}

Result<bool> Relation::InsertProjection(const Tuple& tuple,
                                        const std::vector<size_t>& columns) {
  if (columns.size() != arity_) {
    return ArityMismatch("InsertProjection", columns.size(), arity_);
  }
  const RowIdIndex::Entry entry = index_.FindOrInsert(
      tuple.HashOf(columns), rows_.size(), [&](uint32_t r) {
        return tuple.ColumnsEqual(columns, rows_[r], identity_);
      });
  if (!entry.inserted) {
    if (entry.row == RowIdIndex::kNoRow) return TooManyRows();
    return false;
  }
  rows_.emplace_back().AssignProject(tuple, columns);
  IndexLastRow();
  return true;
}

void Relation::IndexLastRow() {
  const size_t row = rows_.size() - 1;
  for (auto& [column, column_index] : column_indexes_) {
    column_index[rows_[row].at(column)].push_back(row);
  }
  if (columnar_) columnar_->Append(rows_[row]);
}

void Relation::BuildColumnStore() {
  columnar_ = std::make_unique<ColumnStore>(arity_);
  for (const Tuple& t : rows_) columnar_->Append(t);
}

Status Relation::BuildIndex(size_t column) {
  if (column >= arity_) {
    return Status::InvalidArgument(
        "BuildIndex: column " + std::to_string(column) +
        " out of range for arity " + std::to_string(arity_));
  }
  ColumnIndex built;
  for (size_t i = 0; i < rows_.size(); ++i) {
    built[rows_[i].at(column)].push_back(i);
  }
  column_indexes_[column] = std::move(built);
  return Status::Ok();
}

const std::vector<size_t>& Relation::Matches(size_t column,
                                             const Value& value) const {
  static const std::vector<size_t> kEmpty;
  auto it = column_indexes_.find(column);
  if (it == column_indexes_.end()) return kEmpty;
  auto vit = it->second.find(value);
  return vit == it->second.end() ? kEmpty : vit->second;
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> sorted = rows_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
  for (const Tuple& t : a.rows_) {
    if (!b.Contains(t)) return false;
  }
  return true;
}

std::string Relation::ToString() const {
  std::string out = "[";
  out += std::to_string(size());
  out += " tuples, arity ";
  out += std::to_string(arity_);
  out += "]\n";
  for (const Tuple& t : rows_) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace bryql
