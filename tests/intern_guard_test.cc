// Execution never interns. Strings enter the process-wide pool only when
// data is created (MakeUniversity, CSV, writes) or a query constant is
// parsed; every operator, the columnar gather and the predicate kernels
// only copy values that already point into the pool. Interning takes the
// pool's lock, so a per-row intern on the execution path would serialize
// parallel workers — this test is the guard against reintroducing one.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common/value.h"
#include "core/query_processor.h"
#include "workload/university.h"

namespace bryql {
namespace {

struct Setting {
  size_t threads;
  bool columnar;
};

const Setting kSettings[] = {{0, false}, {0, true}, {4, false}, {4, true}};

/// Runs the whole paper suite once under `setting` on `qp`.
void RunSuite(const QueryProcessor& qp, const Setting& setting) {
  QueryOptions options;
  options.num_threads = setting.threads;
  for (const NamedQuery& nq : PaperQuerySuite()) {
    auto run = qp.Run(nq.text, Strategy::kBry, options);
    ASSERT_TRUE(run.ok()) << nq.name << ": " << run.status();
  }
}

TEST(InternGuardTest, PaperSuiteExecutionNeverInterns) {
  UniversityConfig config;
  config.seed = 7;
  Database db = MakeUniversity(config);
  db.EnableColumnarAll();
  // One processor per columnar setting: use_columnar shapes the lowered
  // plan, while the thread count only drives it.
  QueryProcessor row_qp(&db);
  QueryProcessor columnar_qp(&db);
  ExecOptions row_only;
  row_only.use_columnar = false;
  row_qp.SetExecOptions(row_only);
  auto processor_for = [&](const Setting& s) -> const QueryProcessor& {
    return s.columnar ? columnar_qp : row_qp;
  };
  // Warm-up: parsing interns each query constant and fills the plan
  // caches, so the measured runs below parse nothing.
  for (const Setting& s : kSettings) RunSuite(processor_for(s), s);

  for (const Setting& s : kSettings) {
    const InternPoolStats before = GetInternPoolStats();
    RunSuite(processor_for(s), s);
    const InternPoolStats after = GetInternPoolStats();
    const std::string label = "threads=" + std::to_string(s.threads) +
                              " columnar=" + (s.columnar ? "on" : "off");
    EXPECT_EQ(after.strings, before.strings) << label;
    EXPECT_EQ(after.bytes, before.bytes) << label;
    EXPECT_EQ(after.calls, before.calls) << label;
  }
}

}  // namespace
}  // namespace bryql
