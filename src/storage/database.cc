#include "storage/database.h"

namespace bryql {

void Database::Put(const std::string& name, Relation relation) {
  relations_.insert_or_assign(name, std::move(relation));
  ++version_;
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it != relations_.end()) return &it->second;
  if (name == "dom") {
    // Concurrent readers may all miss after a Put; the lock makes one of
    // them rebuild and the rest wait for (and then share) its result.
    // Writers are excluded by contract, so the relation stays put once
    // published for this version.
    std::lock_guard<std::mutex> lock(domain_.mutex);
    if (domain_.version != version_) {
      domain_.relation = ActiveDomain();
      domain_.version = version_;
    }
    return &domain_.relation;
  }
  return Status::NotFound("no relation named '" + name + "'");
}

Result<size_t> Database::ArityOf(const std::string& name) const {
  BRYQL_ASSIGN_OR_RETURN(const Relation* rel, Get(name));
  return rel->arity();
}

Status Database::BuildIndex(const std::string& name, size_t column) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (column >= it->second.arity()) {
    return Status::InvalidArgument(
        "no column " + std::to_string(column) + " in relation '" + name +
        "' of arity " + std::to_string(it->second.arity()));
  }
  // An index changes the best access path, so plans prepared before it
  // must not be reused as-is.
  ++version_;
  return it->second.BuildIndex(column);
}

void Database::BuildAllIndexes() {
  ++version_;
  for (auto& [name, rel] : relations_) {
    for (size_t c = 0; c < rel.arity(); ++c) rel.BuildIndex(c);
  }
}

Status Database::EnableColumnar(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  it->second.BuildColumnStore();
  // A new access path invalidates prepared plans, like BuildIndex does.
  ++version_;
  return Status::Ok();
}

void Database::EnableColumnarAll() {
  bool built = false;
  for (auto& [name, rel] : relations_) {
    if (rel.column_store() == nullptr) {
      rel.BuildColumnStore();
      built = true;
    }
  }
  if (built) ++version_;
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

Relation Database::ActiveDomain() const {
  Relation dom(1);
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.rows()) {
      for (const Value& v : t.values()) dom.Insert(Tuple({v}));
    }
  }
  return dom;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

}  // namespace bryql
