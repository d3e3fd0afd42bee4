#include "storage/tuple.h"

#include <algorithm>
#include <memory>

namespace bryql {

void Tuple::Grow(size_t n, bool keep) {
  const size_t capacity = std::max<size_t>(n, size_t{2} * capacity_);
  Value* heap = std::allocator<Value>().allocate(capacity);
  if (keep) CopyValues(heap, data(), size_);
  Release();
  heap_ = heap;
  capacity_ = static_cast<uint32_t>(capacity);
}

void Tuple::Release() {
  if (on_heap()) std::allocator<Value>().deallocate(heap_, capacity_);
}

bool operator<(const Tuple& a, const Tuple& b) {
  const std::span<const Value> x = a.values();
  const std::span<const Value> y = b.values();
  return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end());
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (uint32_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += at(i).ToString();
  }
  out += ")";
  return out;
}

}  // namespace bryql
