#include "common/value.h"

#include <mutex>
#include <sstream>
#include <unordered_set>

namespace bryql {

namespace {

/// A lookup key for the pool: the text with its hash computed once.
struct TextKey {
  std::string_view text;
  size_t hash;
};

/// Hash and equality over entries and lookup keys alike, so a lookup
/// builds no std::string.
struct EntryHash {
  using is_transparent = void;
  template <typename T>
  size_t operator()(const T& t) const {
    return t.hash;
  }
};

struct EntryEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a.text == b.text;
  }
};

/// The process-wide string pool. Set nodes never move, so a pointer to an
/// entry stays valid across rehashes; the pool is never destroyed, so it
/// also stays valid while other statics are torn down. Only interning
/// takes the lock: a value reads its entry's text and hash without it.
struct InternPool {
  std::mutex mutex;
  std::unordered_set<InternedString, EntryHash, EntryEq> entries;
  size_t bytes = 0;
  size_t calls = 0;
};

InternPool& Pool() {
  static InternPool* pool = new InternPool;
  return *pool;
}

}  // namespace

Value Value::String(std::string_view text) {
  // std::hash<std::string_view> equals std::hash<std::string> on the same
  // text, so the cached hash is what hashing the text itself would give.
  const TextKey key{text, std::hash<std::string_view>{}(text)};
  InternPool& pool = Pool();
  Value v(ValueKind::kString);
  std::lock_guard<std::mutex> lock(pool.mutex);
  ++pool.calls;
  auto it = pool.entries.find(key);
  if (it == pool.entries.end()) {
    it = pool.entries.insert(InternedString{std::string(text), key.hash})
             .first;
    pool.bytes += text.size();
  }
  v.string_ = &*it;
  return v;
}

InternPoolStats GetInternPoolStats() {
  InternPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return {pool.entries.size(), pool.bytes, pool.calls};
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "∅";
    case ValueKind::kMark:
      return "⊥";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueKind::kString:
      return "'" + AsString() + "'";
  }
  return "<bad value>";
}

bool operator<(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) {
    if (Value::IsNumeric(a.kind_) && Value::IsNumeric(b.kind_)) {
      return a.Numeric() < b.Numeric();
    }
    return a.kind_ < b.kind_;
  }
  switch (a.kind_) {
    case ValueKind::kInt:
      return a.int_ < b.int_;
    case ValueKind::kDouble:
      return a.double_ < b.double_;
    case ValueKind::kString:
      // Interning order says nothing about text order: compare the texts.
      return a.string_ != b.string_ && a.AsString() < b.AsString();
    default:
      return false;
  }
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace bryql
