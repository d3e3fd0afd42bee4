#ifndef BRYQL_COMMON_VALUE_H_
#define BRYQL_COMMON_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace bryql {

/// The kind of a domain value. `kNull` and `kMark` are the two internal
/// symbols of the paper's constrained outer-join (Definition 7):
///   kNull — the ∅ symbol padded onto outer-join tuples with no partner;
///   kMark — the ⊥ symbol recording that a partner exists without storing it.
/// Neither symbol is expressible in the user query language; they only
/// appear in intermediate relations.
enum class ValueKind : uint8_t {
  kNull = 0,
  kMark,
  kInt,
  kDouble,
  kString,
};

/// One entry of the process-wide string pool: the text and its
/// std::hash<std::string>, computed once when the text is interned.
/// Entries are immutable, never move and are never freed.
struct InternedString {
  std::string text;
  size_t hash;
};

/// The process-wide string pool's size — distinct texts interned so far
/// and the bytes of their text — and the number of Value::String calls it
/// has served. The pool is append-only, so the size only grows, and only
/// when data or a query constant introduces a new string. Execution makes
/// no call at all, which is what the call count lets a test check.
struct InternPoolStats {
  size_t strings = 0;
  size_t bytes = 0;
  size_t calls = 0;
};
InternPoolStats GetInternPoolStats();

/// An immutable typed value from the database domain: a kind byte and an
/// 8-byte payload (an int64_t, a double, or a pointer to the interned
/// string entry), 16 bytes in all and trivially copyable.
///
/// Strings are interned by Value::String, so two string values are equal
/// exactly when they point at the same entry. Execution never interns: it
/// only copies values that data creation and the parser already made.
///
/// Ordering and equality are defined across kinds (kind first, then payload)
/// so values can serve as hash/tree keys; cross-kind comparisons never claim
/// equality. ∅ and ⊥ compare equal only to themselves, matching their use as
/// pure markers in Definition 7.
class Value {
 public:
  /// Constructs the internal null symbol ∅.
  Value() : kind_(ValueKind::kNull), int_(0) {}

  static Value Null() { return Value(); }
  /// The internal "partner found" symbol ⊥ of Definition 7.
  static Value Mark() { return Value(ValueKind::kMark); }
  static Value Int(int64_t value) {
    Value v(ValueKind::kInt);
    v.int_ = value;
    return v;
  }
  static Value Double(double value) {
    Value v(ValueKind::kDouble);
    v.double_ = value;
    return v;
  }
  /// Interns `text` in the process-wide pool (thread-safe; takes the
  /// pool's lock) and returns a value pointing at its entry.
  static Value String(std::string_view text);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  bool is_mark() const { return kind_ == ValueKind::kMark; }

  /// Payload accessors; each must only be called for the matching kind.
  /// AsString's reference points into the pool and stays valid for the
  /// whole process.
  int64_t AsInt() const { return int_; }
  double AsDouble() const { return double_; }
  const std::string& AsString() const { return string_->text; }

  /// Renders the value for plans and test output: ints and doubles as
  /// written, strings single-quoted, ∅ as "∅" and ⊥ as "⊥".
  std::string ToString() const;

  /// Total order over all values: by kind, then by payload. Int/double pairs
  /// compare numerically so that selections like x < 3.5 behave naturally;
  /// strings compare by text, whatever order they were interned in.
  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ == b.kind_) {
      switch (a.kind_) {
        case ValueKind::kInt:
          return a.int_ == b.int_;
        case ValueKind::kDouble:
          return a.double_ == b.double_;
        case ValueKind::kString:
          return a.string_ == b.string_;
        default:
          return true;
      }
    }
    // Only an int/double pair can be equal across kinds.
    return IsNumeric(a.kind_) && IsNumeric(b.kind_) &&
           a.Numeric() == b.Numeric();
  }
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

  /// Hash consistent with operator==. Int and double hash through the same
  /// numeric path so that Int(2) and Double(2.0) hash alike; a string's
  /// hash is std::hash<std::string> of its text, cached in the pool.
  size_t Hash() const {
    switch (kind_) {
      case ValueKind::kNull:
        return 0x9e3779b97f4a7c15ull;
      case ValueKind::kMark:
        return 0xc2b2ae3d27d4eb4full;
      case ValueKind::kInt:
        return std::hash<double>{}(static_cast<double>(int_));
      case ValueKind::kDouble:
        return std::hash<double>{}(double_);
      case ValueKind::kString:
        return string_->hash;
    }
    return 0;
  }

 private:
  explicit Value(ValueKind kind) : kind_(kind), int_(0) {}

  static bool IsNumeric(ValueKind kind) {
    return kind == ValueKind::kInt || kind == ValueKind::kDouble;
  }
  double Numeric() const {
    return kind_ == ValueKind::kInt ? static_cast<double>(int_) : double_;
  }

  ValueKind kind_;
  union {
    int64_t int_;
    double double_;
    const InternedString* string_;
  };
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// Hash functor for use as std::unordered_* key.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace bryql

#endif  // BRYQL_COMMON_VALUE_H_
