// Execution never interns. Strings enter the process-wide pool only when
// data is created (MakeUniversity, CSV, writes) or a query constant is
// parsed; every operator, the columnar gather and the predicate kernels
// only copy values that already point into the pool. Interning takes the
// pool's lock, so a per-row intern on the execution path would serialize
// concurrent queries — this test is the guard against reintroducing one.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common/value.h"
#include "core/query_processor.h"
#include "workload/university.h"

namespace bryql {
namespace {

/// Runs the whole paper suite once on `qp`.
void RunSuite(const QueryProcessor& qp) {
  for (const NamedQuery& nq : PaperQuerySuite()) {
    auto run = qp.Run(nq.text, Strategy::kBry);
    ASSERT_TRUE(run.ok()) << nq.name << ": " << run.status();
  }
}

TEST(InternGuardTest, PaperSuiteExecutionNeverInterns) {
  UniversityConfig config;
  config.seed = 7;
  Database db = MakeUniversity(config);
  db.EnableColumnarAll();
  // One processor per columnar setting: use_columnar shapes the lowered
  // plan.
  QueryProcessor row_qp(&db);
  QueryProcessor columnar_qp(&db);
  ExecOptions row_only;
  row_only.use_columnar = false;
  row_qp.SetExecOptions(row_only);
  const QueryProcessor* processors[] = {&row_qp, &columnar_qp};
  // Warm-up: parsing interns each query constant and fills the plan
  // caches, so the measured runs below parse nothing.
  for (const QueryProcessor* qp : processors) RunSuite(*qp);

  for (const QueryProcessor* qp : processors) {
    const InternPoolStats before = GetInternPoolStats();
    RunSuite(*qp);
    const InternPoolStats after = GetInternPoolStats();
    const std::string label =
        std::string("columnar=") + (qp == &columnar_qp ? "on" : "off");
    EXPECT_EQ(after.strings, before.strings) << label;
    EXPECT_EQ(after.bytes, before.bytes) << label;
    EXPECT_EQ(after.calls, before.calls) << label;
  }
}

}  // namespace
}  // namespace bryql
