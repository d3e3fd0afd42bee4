#ifndef BRYQL_STORAGE_DATABASE_H_
#define BRYQL_STORAGE_DATABASE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/relation.h"

namespace bryql {

/// A catalog of named base relations — the "database instance" queries run
/// against. Lookup is by predicate name as it appears in calculus atoms.
///
/// Thread safety: every const member may be called concurrently from any
/// number of threads (including Get("dom"), whose lazily rebuilt view is
/// published under a lock). Mutations — Put, BuildIndex,
/// BuildAllIndexes, EnableColumnar[All], assignment — are not
/// synchronized: a writer needs external exclusion from every reader and
/// every other writer, and pointers returned by Get are invalidated by
/// the next mutation.
class Database {
 public:
  Database() = default;

  /// Registers `relation` under `name`, replacing any previous binding.
  void Put(const std::string& name, Relation relation);

  bool Has(const std::string& name) const {
    return relations_.count(name) != 0;
  }

  /// The relation bound to `name`, or NotFound. The name "dom" — unless
  /// shadowed by a stored relation — resolves to the active domain (the
  /// paper's Domain Closure Assumption view, §2.1), rebuilt lazily by the
  /// first "dom" lookup after a mutation and shared until the next one.
  Result<const Relation*> Get(const std::string& name) const;

  /// Arity of the relation bound to `name`, or NotFound.
  Result<size_t> ArityOf(const std::string& name) const;

  /// Builds a hash index on `column` of the stored relation `name`.
  Status BuildIndex(const std::string& name, size_t column);

  /// Builds indexes on every column of every stored relation.
  void BuildAllIndexes();

  /// Builds the column-major store for relation `name` (NotFound when no
  /// such relation). Once built it is maintained by inserts, and the
  /// lowerer may pick a columnar scan over it.
  Status EnableColumnar(const std::string& name);

  /// Builds column stores for every relation that lacks one. Idempotent:
  /// the catalog version only advances when a store was actually built,
  /// so prepared plans survive redundant calls.
  void EnableColumnarAll();

  /// Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  /// The active domain: every value appearing in any relation, as a unary
  /// relation. This is the paper's "dom" view under the Domain Closure
  /// Assumption (§2.1); the classical baseline translation ranges
  /// unrestricted variables over it.
  Relation ActiveDomain() const;

  /// Total number of stored tuples across all relations.
  size_t TotalTuples() const;

  /// Catalog version, advanced by every mutation (Put, BuildIndex).
  /// Cached query plans record the version they were prepared against and
  /// are re-prepared when it moves.
  uint64_t version() const { return version_; }

 private:
  /// The "dom" view, rebuilt at most once per catalog version under
  /// `mutex`. Copies start empty (version 0 never matches version_), so a
  /// copied or assigned catalog rebuilds its own view.
  struct DomainCache {
    DomainCache() = default;
    DomainCache(const DomainCache&) {}
    DomainCache& operator=(const DomainCache&) {
      version = 0;
      return *this;
    }
    std::mutex mutex;
    Relation relation{1};
    uint64_t version = 0;
  };

  std::map<std::string, Relation> relations_;
  mutable DomainCache domain_;
  uint64_t version_ = 1;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_DATABASE_H_
