#ifndef BRYQL_EXEC_PHYSICAL_SCAN_H_
#define BRYQL_EXEC_PHYSICAL_SCAN_H_

#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

/// Full scan over a borrowed row vector (base relations and literals).
/// Every row read is admitted through the governor as a base-table scan.
class TableScanOp : public PhysicalOperator {
 public:
  TableScanOp(const std::vector<Tuple>* rows, PhysicalContext ctx)
      : rows_(rows), ctx_(ctx) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  const std::vector<Tuple>* rows_;
  PhysicalContext ctx_;
  size_t index_ = 0;
};

/// Hash-index bucket lookup with a residual filter. Only touched rows
/// count as scanned — the whole point of the index.
class IndexScanOp : public PhysicalOperator {
 public:
  IndexScanOp(const Relation* rel, const std::vector<size_t>* matches,
              PredicatePtr residual, PhysicalContext ctx)
      : rel_(rel), matches_(matches), residual_(std::move(residual)),
        ctx_(ctx) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  const Relation* rel_;
  const std::vector<size_t>* matches_;
  PredicatePtr residual_;
  PhysicalContext ctx_;
  size_t index_ = 0;
};

/// Streams an intermediate relation it owns: a boolean sub-evaluation's
/// {()}/{}. Reads are not admissions: `tuples_scanned` counts
/// base-relation reads only.
class RelationScanOp : public PhysicalOperator {
 public:
  explicit RelationScanOp(Relation rel) : rel_(std::move(rel)) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  Relation rel_;
  size_t index_ = 0;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_SCAN_H_
