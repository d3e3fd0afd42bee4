// E14: morsel-driven parallel execution. Two questions, answered on the
// heavy paper workloads (the E9 universal/nested shapes plus the E3/E6
// join- and filter-bound queries):
//
//   1. Scaling — one prepared plan, driven at num_threads ∈ {1, 2, 4, 8}
//      vs. the serial engine. num_threads ≤ 1 runs serially, so t1 is
//      the serial engine by construction; t2..t8 fan out. The speedup is
//      hardware-bound: on a single-core host the workers time-share one
//      CPU and the curve measures coordination overhead only.
//   2. Serial overhead — num_threads = 0 must be within noise of the
//      pre-parallelism engine. The parallel hooks are pointer checks
//      decided at operator-build time, so the per-tuple path is
//      unchanged; BM_Parallel_SerialBaseline is the regression guard.

#include "bench/bench_util.h"

namespace bryql {
namespace {

struct Workload {
  const char* name;
  const char* text;
};

const Workload kWorkloads[] = {
    {"E3-complement-join", "{ x, z | member(x, z) & ~skill(x, db) }"},
    {"E6-disjunctive-filter",
     "{ x | student(x) & (speaks(x, french) | speaks(x, german)) }"},
    {"E9-universal",
     "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }"},
    {"E9-nested-exists",
     "exists x y: enrolled(x, y) & y != cs & makes(x, phd) & "
     "(exists z: lecture(z, ai) & attends(x, z))"},
};

Database MakeDb(size_t students) {
  UniversityConfig config;
  config.students = students;
  config.professors = students / 8;
  config.lectures = 48;
  config.seed = 31;
  return MakeUniversity(config);
}

/// One prepared plan, executed at the thread count in range(2) — 0 and 1
/// run the PlanRuntime serially, N > 1 morsel-parallel with N workers.
void BM_Parallel_Execute(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  QueryProcessor qp(&db);
  auto prepared = qp.Prepare(w.text);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  QueryOptions options = QueryOptions::Unlimited();
  options.num_threads = static_cast<size_t>(state.range(2));
  Execution exec;
  for (auto _ : state) {
    auto result = qp.Execute(*prepared, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    exec = std::move(*result);
    benchmark::DoNotOptimize(exec.answer.relation);
    benchmark::DoNotOptimize(exec.answer.truth);
  }
  state.SetLabel(std::string(w.name) + "/t" +
                 std::to_string(state.range(2)));
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

/// The serial-overhead guard: identical to BM_Parallel_Execute at
/// num_threads = 0, kept as a separate benchmark name so the pre-PR
/// baseline (bench_prepared's BM_Prepared_Execute) and this number can
/// be diffed by name across revisions. Acceptance: within 2%.
void BM_Parallel_SerialBaseline(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  QueryProcessor qp(&db);
  auto prepared = qp.Prepare(w.text);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  Execution exec;
  for (auto _ : state) {
    auto result = qp.Execute(*prepared);  // default options: num_threads = 0
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    exec = std::move(*result);
    benchmark::DoNotOptimize(exec.answer.relation);
    benchmark::DoNotOptimize(exec.answer.truth);
  }
  state.SetLabel(w.name);
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

void ScalingArgs(benchmark::internal::Benchmark* b) {
  for (long scale : {2000L, 8000L}) {
    for (long w = 0; w < 4; ++w) {
      for (long threads : {0L, 1L, 2L, 4L, 8L}) b->Args({scale, w, threads});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

void BaselineArgs(benchmark::internal::Benchmark* b) {
  for (long scale : {2000L, 8000L}) {
    for (long w = 0; w < 4; ++w) b->Args({scale, w});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Parallel_Execute)->Apply(ScalingArgs);
BENCHMARK(BM_Parallel_SerialBaseline)->Apply(BaselineArgs);

}  // namespace
}  // namespace bryql

BENCHMARK_MAIN();
