#include "selftest.h"

#include <vector>

#include "calculus/parser.h"
#include "core/query_processor.h"
#include "rewrite/rewriter.h"
#include "trace.h"
#include "workload/university.h"
#include "workloads.h"

namespace perfbench {

std::string StreamBytes(const std::string& workload, uint64_t seed,
                        size_t n) {
  std::string bytes;
  if (workload == "suite-warm") {
    SuiteOrder order(seed, SuiteTexts().size());
    for (size_t i = 0; i < n; ++i) bytes += std::to_string(order.Next()) + ";";
  } else if (workload == "adhoc-cold") {
    AdhocGenerator generator(seed);
    for (size_t i = 0; i < n; ++i) {
      const AdhocOp op = generator.Op(i);
      bytes += op.write ? "write " + op.relation + " " +
                              std::to_string(op.write_seed)
                        : generator.pool()[op.text];
      bytes += '\n';
    }
  } else if (workload == "service-mixed") {
    const double seconds = static_cast<double>(n) / kServiceRate;
    for (const Arrival& a : PoissonSchedule(seed, kServiceRate, seconds,
                                            SuiteTexts().size())) {
      bytes += std::to_string(a.due_ns) + ":" + std::to_string(a.query) + ";";
    }
  }
  return bytes;
}

std::string CheckSeedStreams(uint64_t seed) {
  constexpr size_t kRequests = 2000;
  for (const std::string& workload : WorkloadNames()) {
    const std::string first = StreamBytes(workload, seed, kRequests);
    if (first.empty()) return workload + ": empty request stream";
    if (StreamBytes(workload, seed, kRequests) != first) {
      return workload + ": the same seed gave a different request stream";
    }
    if (StreamBytes(workload, seed + 1, kRequests) == first) {
      return workload + ": another seed gave the same request stream";
    }
  }
  return "";
}

std::string CheckGeneratedTexts(const AdhocGenerator& generator) {
  bryql::UniversityConfig config;
  config.students = kAdhocStudents;
  const bryql::Database db = bryql::MakeUniversity(config);
  const bryql::QueryProcessor processor(&db);
  bryql::QueryOptions options;
  options.bypass_plan_cache = true;
  for (const std::string& text : generator.pool()) {
    auto query = bryql::ParseQuery(text);
    if (!query.ok()) return "does not parse: " + text;
    auto normalized = bryql::NormalizeQuery(*query);
    if (!normalized.ok()) return "does not normalize: " + text;
    auto prepared = processor.Prepare(text, bryql::Strategy::kBry, options);
    if (!prepared.ok()) {
      return "does not prepare: " + text + " (" +
             prepared.status().ToString() + ")";
    }
  }
  return "";
}

std::string CheckSelfTimes() {
  // root [0,100]: children a [10,40] and b [30,60] overlap, c [90,120]
  // runs past the root's end; a has a grandchild g [20,30].
  std::vector<Span> spans = {
      {"root", kNoParent, 0, 0, 100}, {"a", 0, 0, 10, 40},
      {"b", 0, 0, 30, 60},            {"c", 0, 0, 90, 120},
      {"g", 1, 0, 20, 30},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  // root: 100 - |[10,60] ∪ [90,100]| = 40; a: 30 - 10 = 20.
  const std::vector<int64_t> expected = {40, 20, 30, 30, 10};
  if (self != expected) {
    std::string got;
    for (int64_t v : self) got += std::to_string(v) + " ";
    return "SelfTimes gave " + got + "instead of 40 20 30 30 10";
  }
  return "";
}

}  // namespace perfbench
