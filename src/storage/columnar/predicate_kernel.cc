#include "storage/columnar/predicate_kernel.h"

#include <bit>
#include <cmath>

namespace bryql {

namespace {

using Zone = PredicateKernel::Zone;

bool IsNumericKind(ValueKind k) {
  return k == ValueKind::kInt || k == ValueKind::kDouble;
}

bool IsNanLiteral(const Value& v) {
  return v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble());
}

Zone Flip(Zone z) {
  if (z == Zone::kNone) return Zone::kAll;
  if (z == Zone::kAll) return Zone::kNone;
  return Zone::kMaybe;
}

/// Verdict for `v op lit` given v ∈ [lo, hi]. The three base ops are
/// derived from the Value order directly; kNe/kLe/kGe are the row-wise
/// negations of kEq/kGt/kLt, so their zone verdicts are the flips.
Zone IntervalVsValue(CompareOp op, const Value& lo, const Value& hi,
                     const Value& lit) {
  switch (op) {
    case CompareOp::kEq:
      if (lit < lo || hi < lit) return Zone::kNone;
      if (lo == lit && hi == lit) return Zone::kAll;
      return Zone::kMaybe;
    case CompareOp::kNe:
      return Flip(IntervalVsValue(CompareOp::kEq, lo, hi, lit));
    case CompareOp::kLt:  // v < lit
      if (hi < lit) return Zone::kAll;
      if (!(lo < lit)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kGt:  // v > lit  ⇔  lit < v
      if (lit < lo) return Zone::kAll;
      if (!(lit < hi)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kLe:  // v <= lit ⇔ !(v > lit)
      return Flip(IntervalVsValue(CompareOp::kGt, lo, hi, lit));
    case CompareOp::kGe:  // v >= lit ⇔ !(v < lit)
      return Flip(IntervalVsValue(CompareOp::kLt, lo, hi, lit));
  }
  return Zone::kMaybe;
}

/// Verdict for `va op vb` with va ∈ [a_lo, a_hi], vb ∈ [b_lo, b_hi],
/// paired row-wise.
Zone IntervalVsInterval(CompareOp op, const ZoneMap& a, const ZoneMap& b) {
  switch (op) {
    case CompareOp::kEq:
      if (a.max < b.min || b.max < a.min) return Zone::kNone;
      if (a.min == a.max && b.min == b.max && a.min == b.min) {
        return Zone::kAll;
      }
      return Zone::kMaybe;
    case CompareOp::kNe:
      return Flip(IntervalVsInterval(CompareOp::kEq, a, b));
    case CompareOp::kLt:  // va < vb
      if (a.max < b.min) return Zone::kAll;
      if (!(a.min < b.max)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kGt:  // va > vb ⇔ vb < va
      if (b.max < a.min) return Zone::kAll;
      if (!(b.min < a.max)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kLe:
      return Flip(IntervalVsInterval(CompareOp::kGt, a, b));
    case CompareOp::kGe:
      return Flip(IntervalVsInterval(CompareOp::kLt, a, b));
  }
  return Zone::kMaybe;
}

/// One typed comparison, shared by the int and double tight loops. Value
/// derives !=, <=, >, >= from == and < (see value.h), which differs from
/// IEEE for NaN operands (2 <= NaN is !(NaN < 2) = true there); the loops
/// must use the same derivations to stay bit-compatible with the row path.
template <typename T>
inline bool CompareTyped(CompareOp op, T a, T b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return !(a == b);
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return !(b < a);
    case CompareOp::kGt:
      return b < a;
    case CompareOp::kGe:
      return !(a < b);
  }
  return false;
}

inline double AsDoubleAt(const ColumnStore::Column& col, size_t row) {
  return static_cast<ValueKind>(col.kinds[row]) == ValueKind::kInt
             ? static_cast<double>(col.data[row])
             : std::bit_cast<double>(col.data[row]);
}

}  // namespace

PredicateKernel::Zone PredicateKernel::ZoneTest(size_t seg) const {
  if (pred_ == nullptr) return Zone::kAll;
  return ZoneTestNode(pred_, seg);
}

PredicateKernel::Zone PredicateKernel::ZoneTestNode(const Predicate* p,
                                                    size_t seg) const {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      return Zone::kAll;
    case Predicate::Kind::kCompareColVal: {
      const ZoneMap& z = store_->zone(p->lhs(), seg);
      if (z.count == 0) return Zone::kNone;
      if (z.unordered || IsNanLiteral(p->value())) return Zone::kMaybe;
      return IntervalVsValue(p->op(), z.min, z.max, p->value());
    }
    case Predicate::Kind::kCompareColCol: {
      const ZoneMap& a = store_->zone(p->lhs(), seg);
      const ZoneMap& b = store_->zone(p->rhs_col(), seg);
      if (a.count == 0) return Zone::kNone;
      if (a.unordered || b.unordered) return Zone::kMaybe;
      return IntervalVsInterval(p->op(), a, b);
    }
    case Predicate::Kind::kIsNull: {
      const ZoneMap& z = store_->zone(p->lhs(), seg);
      if (z.nulls == 0) return Zone::kNone;
      if (z.nulls == z.count) return Zone::kAll;
      return Zone::kMaybe;
    }
    case Predicate::Kind::kIsNotNull: {
      const ZoneMap& z = store_->zone(p->lhs(), seg);
      if (z.nulls == 0 && z.count > 0) return Zone::kAll;
      if (z.nulls == z.count) return Zone::kNone;
      return Zone::kMaybe;
    }
    case Predicate::Kind::kAnd: {
      bool all = true;
      for (const PredicatePtr& c : p->children()) {
        Zone z = ZoneTestNode(c.get(), seg);
        if (z == Zone::kNone) return Zone::kNone;
        if (z != Zone::kAll) all = false;
      }
      return all ? Zone::kAll : Zone::kMaybe;
    }
    case Predicate::Kind::kOr: {
      bool none = true;
      for (const PredicatePtr& c : p->children()) {
        Zone z = ZoneTestNode(c.get(), seg);
        if (z == Zone::kAll) return Zone::kAll;
        if (z != Zone::kNone) none = false;
      }
      return none ? Zone::kNone : Zone::kMaybe;
    }
    case Predicate::Kind::kNot:
      return Flip(ZoneTestNode(p->children()[0].get(), seg));
  }
  return Zone::kMaybe;
}

const std::vector<uint8_t>& DictMatchTables::Get(
    const Predicate* p, const ColumnStore::Column& col,
    size_t* comparisons) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find(p);
  if (it != tables_.end()) return it->second;
  std::vector<uint8_t> match(col.dict.size());
  for (size_t c = 0; c < col.dict.size(); ++c) {
    // One comparison per *distinct* string — the dictionary win: every
    // later row is a table lookup, not a comparison.
    ++*comparisons;
    match[c] = CompareValues(p->op(), col.dict[c], p->value());
  }
  return tables_.emplace(p, std::move(match)).first->second;
}

void PredicateKernel::EvalMask(const Predicate* p, size_t begin, size_t end,
                               std::vector<uint8_t>* mask,
                               size_t* comparisons) {
  const size_t n = end - begin;
  const size_t seg = begin / kSegmentRows;
  Zone zone = ZoneTestNode(p, seg);
  if (zone == Zone::kNone) {
    mask->assign(n, 0);
    return;
  }
  if (zone == Zone::kAll) {
    mask->assign(n, 1);
    return;
  }
  mask->assign(n, 0);
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      mask->assign(n, 1);
      return;
    case Predicate::Kind::kCompareColVal: {
      const ColumnStore::Column& col = store_->column(p->lhs());
      const ZoneMap& zm = col.zones[seg];
      const Value& lit = p->value();
      const CompareOp op = p->op();
      if (zm.uniform && zm.kind == ValueKind::kInt &&
          lit.kind() == ValueKind::kInt) {
        const int64_t v = lit.AsInt();
        const int64_t* data = col.data.data();
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = CompareTyped(op, data[begin + i], v);
        }
        *comparisons += n;
        return;
      }
      if (zm.uniform && IsNumericKind(zm.kind) &&
          IsNumericKind(lit.kind())) {
        // Mixed int/double pairs compare numerically (Value's order), so
        // a double loop with Value's op derivations reproduces
        // CompareValues exactly — including NaN operands.
        const double v = lit.kind() == ValueKind::kInt
                             ? static_cast<double>(lit.AsInt())
                             : lit.AsDouble();
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = CompareTyped(op, AsDoubleAt(col, begin + i), v);
        }
        *comparisons += n;
        return;
      }
      if (zm.uniform && zm.kind == ValueKind::kString &&
          lit.kind() == ValueKind::kString) {
        const std::vector<uint8_t>& match =
            dict_matches().Get(p, col, comparisons);
        const int64_t* data = col.data.data();
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = match[static_cast<size_t>(data[begin + i])];
        }
        return;
      }
      // Mixed-kind segment or cross-kind literal: reconstruct and defer
      // to CompareValues — the guaranteed-parity slow path.
      for (size_t i = 0; i < n; ++i) {
        ++*comparisons;
        (*mask)[i] = CompareValues(op, store_->ValueAt(p->lhs(), begin + i),
                                   lit);
      }
      return;
    }
    case Predicate::Kind::kCompareColCol: {
      const ColumnStore::Column& a = store_->column(p->lhs());
      const ColumnStore::Column& b = store_->column(p->rhs_col());
      const ZoneMap& za = a.zones[seg];
      const ZoneMap& zb = b.zones[seg];
      const CompareOp op = p->op();
      if (za.uniform && zb.uniform && za.kind == ValueKind::kInt &&
          zb.kind == ValueKind::kInt) {
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = CompareTyped(op, a.data[begin + i], b.data[begin + i]);
        }
        *comparisons += n;
        return;
      }
      if (za.uniform && zb.uniform && IsNumericKind(za.kind) &&
          IsNumericKind(zb.kind)) {
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] = CompareTyped(op, AsDoubleAt(a, begin + i),
                                    AsDoubleAt(b, begin + i));
        }
        *comparisons += n;
        return;
      }
      for (size_t i = 0; i < n; ++i) {
        ++*comparisons;
        (*mask)[i] =
            CompareValues(op, store_->ValueAt(p->lhs(), begin + i),
                          store_->ValueAt(p->rhs_col(), begin + i));
      }
      return;
    }
    case Predicate::Kind::kIsNull: {
      const ColumnStore::Column& col = store_->column(p->lhs());
      for (size_t i = 0; i < n; ++i) {
        (*mask)[i] = static_cast<ValueKind>(col.kinds[begin + i]) ==
                     ValueKind::kNull;
      }
      return;
    }
    case Predicate::Kind::kIsNotNull: {
      const ColumnStore::Column& col = store_->column(p->lhs());
      for (size_t i = 0; i < n; ++i) {
        (*mask)[i] = static_cast<ValueKind>(col.kinds[begin + i]) !=
                     ValueKind::kNull;
      }
      return;
    }
    case Predicate::Kind::kAnd: {
      mask->assign(n, 1);
      std::vector<uint8_t> child_mask;
      for (const PredicatePtr& c : p->children()) {
        EvalMask(c.get(), begin, end, &child_mask, comparisons);
        bool any = false;
        for (size_t i = 0; i < n; ++i) {
          (*mask)[i] &= child_mask[i];
          any |= (*mask)[i] != 0;
        }
        if (!any) return;  // conjunction already empty
      }
      return;
    }
    case Predicate::Kind::kOr: {
      std::vector<uint8_t> child_mask;
      for (const PredicatePtr& c : p->children()) {
        EvalMask(c.get(), begin, end, &child_mask, comparisons);
        for (size_t i = 0; i < n; ++i) (*mask)[i] |= child_mask[i];
      }
      return;
    }
    case Predicate::Kind::kNot: {
      EvalMask(p->children()[0].get(), begin, end, mask, comparisons);
      for (size_t i = 0; i < n; ++i) (*mask)[i] ^= 1;
      return;
    }
  }
}

void PredicateKernel::EvalRange(size_t begin, size_t end,
                                std::vector<size_t>* sel,
                                size_t* comparisons) {
  if (pred_ == nullptr) {
    for (size_t r = begin; r < end; ++r) sel->push_back(r);
    return;
  }
  std::vector<uint8_t> mask;
  EvalMask(pred_, begin, end, &mask, comparisons);
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) sel->push_back(begin + i);
  }
}

bool PredicateKernel::EvalRow(size_t row, size_t* comparisons) {
  if (pred_ == nullptr) return true;
  return EvalRowNode(pred_, row, comparisons);
}

bool PredicateKernel::EvalRowNode(const Predicate* p, size_t row,
                                  size_t* comparisons) {
  // Mirrors Predicate::Eval — same short-circuiting, same comparison
  // counts — reading values out of the column store instead of a tuple.
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCompareColVal:
      ++*comparisons;
      return CompareValues(p->op(), store_->ValueAt(p->lhs(), row),
                           p->value());
    case Predicate::Kind::kCompareColCol:
      ++*comparisons;
      return CompareValues(p->op(), store_->ValueAt(p->lhs(), row),
                           store_->ValueAt(p->rhs_col(), row));
    case Predicate::Kind::kIsNull:
      return static_cast<ValueKind>(
                 store_->column(p->lhs()).kinds[row]) == ValueKind::kNull;
    case Predicate::Kind::kIsNotNull:
      return static_cast<ValueKind>(
                 store_->column(p->lhs()).kinds[row]) != ValueKind::kNull;
    case Predicate::Kind::kAnd:
      for (const PredicatePtr& c : p->children()) {
        if (!EvalRowNode(c.get(), row, comparisons)) return false;
      }
      return true;
    case Predicate::Kind::kOr:
      for (const PredicatePtr& c : p->children()) {
        if (EvalRowNode(c.get(), row, comparisons)) return true;
      }
      return false;
    case Predicate::Kind::kNot:
      return !EvalRowNode(p->children()[0].get(), row, comparisons);
  }
  return false;
}

}  // namespace bryql
