#ifndef BRYQL_STORAGE_CSV_H_
#define BRYQL_STORAGE_CSV_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/relation.h"

namespace bryql {

/// Parses CSV text into a relation. Fields are inferred per cell: integers,
/// then floating-point numbers, otherwise strings (optionally
/// single-quoted). Blank lines and `#` comment lines are skipped. Every
/// data row must have the same number of fields.
///
/// NaN is not a domain value. Value equality is IEEE (NaN != NaN) — the
/// same equality predicates evaluate — so a NaN row would never equal
/// itself and set semantics would break. A cell that parses as NaN is
/// rejected with kInvalidArgument naming its line, like a ragged row.
Result<Relation> RelationFromCsv(std::string_view text);

/// Loads `path` and parses it with RelationFromCsv.
Result<Relation> RelationFromCsvFile(const std::string& path);

/// Serializes a relation to CSV (strings quoted when needed). ∅ and ⊥ are
/// internal-only symbols and yield InvalidArgument.
Result<std::string> RelationToCsv(const Relation& relation);

class Database;

/// Saves every relation of `db` into `directory` (created if missing):
/// one `<name>.csv` per relation plus a `MANIFEST` listing name, arity
/// and cardinality. Overwrites existing files.
Status SaveDatabase(const Database& db, const std::string& directory);

/// Loads a database saved by SaveDatabase. Relations are read from the
/// MANIFEST, so stray files in the directory are ignored.
Result<Database> LoadDatabase(const std::string& directory);

}  // namespace bryql

#endif  // BRYQL_STORAGE_CSV_H_
