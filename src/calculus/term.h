#ifndef BRYQL_CALCULUS_TERM_H_
#define BRYQL_CALCULUS_TERM_H_

#include <string>
#include <string_view>

#include "common/hash_util.h"
#include "common/value.h"

namespace bryql {

/// A term of the domain calculus: either a variable (named) or a constant
/// (a domain value). Terms appear as arguments of atoms and comparisons.
class Term {
 public:
  static Term Var(std::string name) {
    Term t;
    t.is_var_ = true;
    t.name_ = std::move(name);
    return t;
  }
  static Term Const(Value value) {
    Term t;
    t.is_var_ = false;
    t.value_ = std::move(value);
    return t;
  }

  bool is_variable() const { return is_var_; }
  bool is_constant() const { return !is_var_; }

  /// Variable name; only valid when is_variable().
  const std::string& var() const { return name_; }
  /// Constant value; only valid when is_constant().
  const Value& constant() const { return value_; }

  /// Variables print bare, constants via Value::ToString().
  std::string ToString() const {
    return is_var_ ? name_ : value_.ToString();
  }

  friend bool operator==(const Term& a, const Term& b) {
    if (a.is_var_ != b.is_var_) return false;
    return a.is_var_ ? a.name_ == b.name_ : a.value_ == b.value_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

  size_t Hash() const {
    size_t h = is_var_ ? std::hash<std::string>{}(name_) : value_.Hash();
    return HashCombine(h, is_var_ ? 1 : 2);
  }

 private:
  Term() : is_var_(false) {}

  bool is_var_;
  std::string name_;
  Value value_;
};

/// Shorthand constructors used pervasively in tests and examples.
inline Term V(std::string name) { return Term::Var(std::move(name)); }
inline Term C(std::string_view value) {
  return Term::Const(Value::String(value));
}
inline Term CI(int64_t value) { return Term::Const(Value::Int(value)); }

}  // namespace bryql

#endif  // BRYQL_CALCULUS_TERM_H_
