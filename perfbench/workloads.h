// The benchmark's three workloads. Each run builds its own seeded state,
// checks every answer against the nested-loop interpreter, and reports
// either the end-to-end metrics (untraced) or the per-layer metrics (a
// traced run, which also makes one untraced pass for comparison).
#ifndef BRYQL_PERFBENCH_WORKLOADS_H_
#define BRYQL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Data sizes (MakeUniversity students) of the workloads.
constexpr size_t kSuiteStudents = 2000;
constexpr size_t kAdhocStudents = 50;
constexpr size_t kServiceStudents = 8000;

/// service-mixed: offered rate, sender threads, service concurrency,
/// per-request threads and the interactive deadline.
constexpr double kServiceRate = 16.0;
constexpr size_t kServiceSenders = 4;
constexpr size_t kServiceConcurrency = 3;
constexpr size_t kServiceQueryThreads = 4;
constexpr int64_t kInteractiveDeadlineMs = 500;

const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans; empty writes nothing.
  std::string trace_path;
};

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  /// Wrong answers and unexpected errors. Load shedding and deadline
  /// misses are service outcomes, counted in success_frac instead.
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable remarks printed before the result line.
  std::vector<std::string> notes;
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // BRYQL_PERFBENCH_WORKLOADS_H_
