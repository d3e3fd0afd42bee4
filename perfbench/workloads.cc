#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "algebra/simplifier.h"
#include "calculus/parser.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "querygen.h"
#include "rewrite/rewriter.h"
#include "selftest.h"
#include "service/service.h"
#include "trace.h"
#include "translate/translator.h"
#include "workload/university.h"

namespace perfbench {

using bryql::Answer;
using bryql::Database;
using bryql::ExecStats;
using bryql::Execution;
using bryql::QueryProcessor;
using bryql::Status;
using bryql::StatusCode;

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "suite-warm", "adhoc-cold", "service-mixed"};
  return *names;
}

namespace {

// Set-up is repeated at least kMinSetups times and until kSetupSeconds
// have been spent (at most kMaxSetups); setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 200;
constexpr double kSetupSeconds = 3.0;
constexpr size_t kMaxThreads = 4;
// Latency samples a serial pass makes room for before it starts.
constexpr size_t kReservedSamples = size_t{1} << 18;

// ---------------------------------------------------------------------
// Process accounting (getrusage) and exact per-request counters.

struct Usage {
  double cpu_s = 0;
  double switches = 0;
};

Usage ProcessUsage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  Usage usage;
  usage.cpu_s = static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
                static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) /
                    1e6;
  usage.switches = static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
  return usage;
}

void AddUsageSince(const Usage& before, Usage* total) {
  const Usage now = ProcessUsage();
  total->cpu_s += now.cpu_s - before.cpu_s;
  total->switches += now.switches - before.switches;
}

/// The counters that must repeat exactly for a serial request.
struct Counters {
  size_t scanned = 0, materialized = 0, comparisons = 0, probes = 0,
         operators = 0, rewrite_steps = 0;
  bool operator==(const Counters&) const = default;
};

Counters CountersOf(const Execution& exec) {
  const ExecStats& s = exec.stats;
  return Counters{s.tuples_scanned, s.tuples_materialized, s.comparisons,
                  s.hash_probes,    s.operators,           exec.rewrite_steps};
}

// ---------------------------------------------------------------------
// Per-layer sums of a traced pass (span times are summarized separately).

const std::vector<std::string>& OperatorKinds() {
  static const auto* kinds = new std::vector<std::string>{
      "TableScan", "LiteralScan",   "IndexScan",     "ColumnarScan",
      "Filter",    "Project",       "Product",       "HashJoin",
      "SortMergeJoin", "Division",  "GroupDivision", "GroupCount",
      "Union",     "NonEmpty",      "BoolNot",       "BoolAnd",
      "BoolOr",    "other"};
  return *kinds;
}

std::string KindOf(const std::string& label) {
  const std::string kind = label.substr(0, label.find_first_of(" ("));
  const auto& kinds = OperatorKinds();
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end() ? kind
                                                                   : "other";
}

struct LayerSums {
  size_t queries = 0;
  size_t writes = 0;
  size_t lookups = 0;    // plan-cache lookups (hits + misses)
  size_t served = 0;     // runs served from the cache
  size_t replans = 0;    // cached but stale after a catalog write
  size_t evictions = 0;
  size_t rewrite_steps = 0;  // normalization steps actually performed
  ExecStats exec;            // counters only; operator_stats stay empty
  size_t answer_rows = 0;
  std::map<std::string, double> op_self_ns;

  void AddExecution(const Execution& e) {
    ExecStats counters = e.stats;
    counters.operator_stats.clear();
    exec.Add(counters);
    answer_rows += AnswerRows(e.answer);
    // Self time of an operator: its inclusive time minus its children's
    // (the entries one level deeper until the depth falls back).
    const auto& ops = e.stats.operator_stats;
    for (size_t i = 0; i < ops.size(); ++i) {
      double self = static_cast<double>(ops[i].open_ns + ops[i].next_ns);
      for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
           ++j) {
        if (ops[j].depth == ops[i].depth + 1) {
          self -= static_cast<double>(ops[j].open_ns + ops[j].next_ns);
        }
      }
      op_self_ns[KindOf(ops[i].label)] += std::max(0.0, self);
    }
  }

  void Merge(const LayerSums& o) {
    queries += o.queries;
    writes += o.writes;
    lookups += o.lookups;
    served += o.served;
    replans += o.replans;
    evictions += o.evictions;
    rewrite_steps += o.rewrite_steps;
    exec.Add(o.exec);
    answer_rows += o.answer_rows;
    for (const auto& [kind, ns] : o.op_self_ns) op_self_ns[kind] += ns;
  }
};

// ---------------------------------------------------------------------
// One measured pass over a workload's request stream.

struct Pass {
  std::vector<double> latency_ms;      // completed operations
  std::vector<double> interactive_ms;  // completed closed (yes/no) queries
  std::vector<double> lag_ms;          // open loop: send time - due time
  size_t attempted = 0;
  size_t ok = 0;        // correct answers in time, and successful writes
  size_t answers = 0;   // correct answers in time
  size_t failed = 0;    // wrong answers and unexpected errors
  double seconds = 0;   // serial: time inside operations; service: start
                        // to the last completion
  Usage usage;          // over the operations only
  /// Per operation index, when kept; empty for writes and failed requests.
  std::vector<std::optional<Counters>> counters;
  std::vector<std::string> errors;
  LayerSums layers;  // traced passes only
  bryql::ServiceStats service;  // service passes: deltas over the pass
  /// Whether the peak resident set was restarted when the pass began, so
  /// that PeakRssMb() excludes earlier set-ups and the oracle's prefill.
  bool rss_from_pass = false;

  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(message));
  }

  /// Makes room for `n` latency samples and touches it, so that the
  /// pass's own bookkeeping does not grow the resident set it measures.
  void ReserveSamples(size_t n) {
    latency_ms.resize(n);
    latency_ms.clear();
    interactive_ms.resize(n);
    interactive_ms.clear();
  }
};

// ---------------------------------------------------------------------
// The nested-loop oracle, run outside every timed interval.

bryql::Result<Answer> NestedLoopAnswer(const Database* db,
                                       const std::string& text) {
  const QueryProcessor processor(db);
  bryql::QueryOptions options;
  options.bypass_plan_cache = true;
  auto exec = processor.Run(text, bryql::Strategy::kNestedLoop, options);
  if (!exec.ok()) return exec.status();
  return exec->answer;
}

/// Oracle answers for `texts`, on up to kMaxThreads threads.
std::vector<Answer> NestedLoopAnswers(const Database* db,
                                      const std::vector<std::string>& texts) {
  std::vector<std::optional<Answer>> answers(texts.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < texts.size();) {
      auto answer = NestedLoopAnswer(db, texts[i]);
      if (answer.ok()) answers[i] = std::move(*answer);
    }
  };
  std::vector<std::thread> threads;
  const size_t n = std::min(kMaxThreads, texts.size());
  for (size_t t = 0; t < n; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  std::vector<Answer> out;
  for (size_t i = 0; i < texts.size(); ++i) {
    if (!answers[i]) {
      throw std::runtime_error("nested-loop oracle failed on: " + texts[i]);
    }
    out.push_back(std::move(*answers[i]));
  }
  return out;
}

/// Oracle answers memoized for the current catalog version.
class Oracle {
 public:
  explicit Oracle(const Database* db) : db_(db) {}

  void Prefill(const std::vector<std::string>& texts) {
    std::vector<Answer> answers = NestedLoopAnswers(db_, texts);
    version_ = db_->version();
    for (size_t i = 0; i < texts.size(); ++i) {
      memo_.insert_or_assign(texts[i], std::move(answers[i]));
    }
  }

  bryql::Result<Answer> Get(const std::string& text) {
    if (db_->version() != version_) {
      memo_.clear();
      version_ = db_->version();
    }
    auto it = memo_.find(text);
    if (it != memo_.end()) return it->second;
    auto answer = NestedLoopAnswer(db_, text);
    if (answer.ok()) memo_.emplace(text, *answer);
    return answer;
  }

 private:
  const Database* db_;
  uint64_t version_ = 0;
  std::unordered_map<std::string, Answer> memo_;
};

/// Σ serial / Σ 4-thread run time over `texts`, each the median of three
/// warm runs.
double ParallelSpeedup(const QueryProcessor& processor,
                       const std::vector<std::string>& texts) {
  bryql::QueryOptions t4;
  t4.num_threads = kMaxThreads;
  double serial = 0;
  double parallel = 0;
  for (const std::string& text : texts) {
    std::vector<double> s;
    std::vector<double> p;
    for (int rep = 0; rep < 4; ++rep) {
      int64_t t0 = NowNs();
      (void)processor.Run(text);
      int64_t t1 = NowNs();
      (void)processor.Run(text, bryql::Strategy::kBry, t4);
      int64_t t2 = NowNs();
      if (rep == 0) continue;  // warm-up
      s.push_back(static_cast<double>(t1 - t0));
      p.push_back(static_cast<double>(t2 - t1));
    }
    serial += Median(s);
    parallel += Median(p);
  }
  return parallel > 0 ? serial / parallel : 0;
}

// ---------------------------------------------------------------------
// suite-warm and adhoc-cold: one client, closed loop, serial execution.

struct SerialState {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryProcessor> processor;
};

SerialState MakeSerialState(size_t students, uint64_t seed) {
  bryql::UniversityConfig config;
  config.students = students;
  config.seed = seed;
  SerialState state;
  state.db = std::make_unique<Database>(bryql::MakeUniversity(config));
  state.db->EnableColumnarAll();
  state.processor = std::make_unique<QueryProcessor>(state.db.get());
  for (const std::string& text : SuiteTexts()) {
    auto warm = state.processor->Run(text);
    if (!warm.ok()) {
      throw std::runtime_error("warm-up failed: " + warm.status().ToString());
    }
  }
  return state;
}

/// A replacement for one of the ad-hoc stream's written relations: the
/// relation as MakeUniversity draws it under the write's seed.
bryql::Relation RegeneratedRelation(const std::string& name, size_t students,
                                    uint64_t seed) {
  bryql::UniversityConfig config;
  config.students = students;
  config.seed = seed;
  const Database db = bryql::MakeUniversity(config);
  auto relation = db.Get(name);
  if (!relation.ok()) {
    throw std::runtime_error("no relation to write: " + name);
  }
  return **relation;
}

/// Replays a prepared-cache miss through the phase entry points
/// QueryProcessor hides, one span each, and returns the replay's answer.
bryql::Result<Answer> Replay(const Database& db,
                             const bryql::ExecOptions& exec_options,
                             const std::string& text, Tracer* tracer,
                             uint64_t request, size_t* rewrite_steps) {
  ScopedSpan replay(tracer, "replay", request);
  auto phase = [&](const char* name, const auto& fn) {
    ScopedSpan span(tracer, name, request, replay.id());
    return fn();
  };
  BRYQL_ASSIGN_OR_RETURN(
      bryql::Query query,
      phase("calculus.parse", [&] { return bryql::ParseQuery(text); }));
  BRYQL_ASSIGN_OR_RETURN(
      bryql::NormalizeResult normalized,
      phase("rewrite.normalize", [&] { return bryql::NormalizeQuery(query); }));
  *rewrite_steps = normalized.steps();
  BRYQL_ASSIGN_OR_RETURN(
      bryql::ExprPtr plan,
      phase("translate.translate", [&]() -> bryql::Result<bryql::ExprPtr> {
        const bryql::Translator translator(&db);
        bryql::ExprPtr expr;
        if (query.closed()) {
          BRYQL_ASSIGN_OR_RETURN(
              expr, translator.TranslateClosed(normalized.formula));
        } else {
          BRYQL_ASSIGN_OR_RETURN(
              bryql::TranslatedQuery open,
              translator.TranslateOpen(
                  bryql::Query{query.targets, normalized.formula}));
          expr = open.expr;
        }
        return bryql::SimplifyPlan(expr, db);
      }));
  bryql::Executor executor(&db, exec_options);
  BRYQL_ASSIGN_OR_RETURN(
      bryql::PhysicalPlanPtr physical,
      phase("exec.lower", [&] { return executor.Lower(plan); }));
  return phase("exec.execute_physical", [&]() -> bryql::Result<Answer> {
    Answer answer;
    answer.closed = query.closed();
    if (answer.closed) {
      BRYQL_ASSIGN_OR_RETURN(answer.truth,
                             executor.ExecutePhysicalBool(physical));
    } else {
      BRYQL_ASSIGN_OR_RETURN(answer.relation,
                             executor.ExecutePhysical(physical));
    }
    return answer;
  });
}

class SerialWorkload {
 public:
  /// `keep_counters` records every request's exact counters, for
  /// CountersDifferFrac.
  SerialWorkload(bool adhoc, uint64_t seed, bool keep_counters)
      : adhoc_(adhoc),
        keep_counters_(keep_counters),
        seed_(seed),
        students_(adhoc ? kAdhocStudents : kSuiteStudents),
        suite_(SuiteTexts()) {
    if (adhoc_) generator_ = std::make_unique<AdhocGenerator>(seed);
  }

  const AdhocGenerator* generator() const { return generator_.get(); }

  SerialState Setup() const { return MakeSerialState(students_, seed_); }

  /// Runs the stream for `seconds` of wall time. With a tracer, every
  /// request is traced and every plan-cache miss is replayed.
  Pass Run(SerialState& state, double seconds, Tracer* tracer) const {
    Pass pass;
    Oracle oracle(state.db.get());
    if (!adhoc_) oracle.Prefill(suite_);
    pass.ReserveSamples(kReservedSamples);
    pass.rss_from_pass = ResetPeakRss();
    SuiteOrder order(seed_, suite_.size());
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (size_t i = 0; NowNs() < end; ++i) {
      ++pass.attempted;
      if (keep_counters_) pass.counters.emplace_back();
      const AdhocOp op = adhoc_ ? generator_->Op(i) : AdhocOp{};
      if (op.write) {
        Write(state, op, i, tracer, &pass);
        continue;
      }
      const std::string& text =
          adhoc_ ? generator_->pool()[op.text] : suite_[order.Next()];
      Query(state, text, i, tracer, &oracle, &pass);
    }
    return pass;
  }

 private:
  void Write(SerialState& state, const AdhocOp& op, size_t i, Tracer* tracer,
             Pass* pass) const {
    bryql::Relation relation =
        RegeneratedRelation(op.relation, students_, op.write_seed);
    const Usage before = ProcessUsage();
    const int64_t t0 = NowNs();
    Status status;
    {
      std::optional<ScopedSpan> span;
      if (tracer != nullptr) span.emplace(tracer, "storage.put", i);
      state.db->Put(op.relation, std::move(relation));
      status = state.db->EnableColumnar(op.relation);
    }
    const int64_t t1 = NowNs();
    AddUsageSince(before, &pass->usage);
    pass->seconds += static_cast<double>(t1 - t0) / 1e9;
    pass->latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    ++pass->layers.writes;
    if (status.ok()) {
      ++pass->ok;
    } else {
      pass->Fail("write " + op.relation + ": " + status.ToString());
    }
  }

  void Query(SerialState& state, const std::string& text, size_t i,
             Tracer* tracer, Oracle* oracle, Pass* pass) const {
    QueryProcessor& processor = *state.processor;
    std::optional<bryql::Result<Execution>> exec;
    bryql::PreparedQueryPtr prepared;
    bool prepared_here = false;
    const Usage before = ProcessUsage();
    const int64_t t0 = NowNs();
    if (tracer == nullptr) {
      exec.emplace(processor.Run(text));
    } else {
      ScopedSpan request(tracer, "request", i);
      const bryql::PlanCacheStats cache0 = processor.cache_stats();
      const size_t parses0 = processor.prepare_counters().parses;
      std::optional<bryql::Result<bryql::PreparedQueryPtr>> prep;
      {
        ScopedSpan span(tracer, "core.prepare", i, request.id());
        prep.emplace(processor.Prepare(text));
      }
      const bryql::PlanCacheStats cache1 = processor.cache_stats();
      prepared_here = processor.prepare_counters().parses != parses0;
      LayerSums& layers = pass->layers;
      layers.lookups += cache1.hits + cache1.misses - cache0.hits -
                        cache0.misses;
      layers.evictions += cache1.evictions - cache0.evictions;
      layers.served += prepared_here ? 0 : 1;
      layers.replans += prepared_here && cache1.hits != cache0.hits;
      if (prep->ok()) {
        prepared = **prep;
        ScopedSpan span(tracer, "core.execute", i, request.id());
        exec.emplace(processor.Execute(prepared));
      } else {
        exec.emplace(prep->status());
      }
    }
    const int64_t t1 = NowNs();
    AddUsageSince(before, &pass->usage);
    pass->seconds += static_cast<double>(t1 - t0) / 1e9;
    if (!exec->ok()) {
      pass->Fail(text + ": " + exec->status().ToString());
      return;
    }
    const Execution& execution = **exec;
    if (tracer != nullptr && prepared_here) {
      size_t steps = 0;
      auto replayed = Replay(*state.db, processor.exec_options(), text, tracer,
                             i, &steps);
      pass->layers.rewrite_steps += steps;
      if (!replayed.ok() || !SameAnswer(*replayed, execution.answer) ||
          steps != prepared->rewrite_steps) {
        pass->Fail("phase replay disagrees with QueryProcessor on: " + text);
        return;
      }
    }
    auto expected = oracle->Get(text);
    if (!expected.ok()) {
      pass->Fail("oracle: " + text + ": " + expected.status().ToString());
      return;
    }
    if (!SameAnswer(execution.answer, *expected)) {
      pass->Fail("wrong answer: " + text);
      return;
    }
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    pass->latency_ms.push_back(ms);
    if (execution.answer.closed) pass->interactive_ms.push_back(ms);
    ++pass->ok;
    ++pass->answers;
    if (keep_counters_) pass->counters.back() = CountersOf(execution);
    if (tracer == nullptr) return;
    ++pass->layers.queries;
    pass->layers.AddExecution(execution);
  }

  bool adhoc_;
  bool keep_counters_;
  uint64_t seed_;
  size_t students_;
  std::vector<std::string> suite_;
  std::unique_ptr<AdhocGenerator> generator_;
};

// ---------------------------------------------------------------------
// service-mixed: open-loop Poisson arrivals into one QueryService.

struct ServiceState {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryProcessor> processor;
  std::unique_ptr<bryql::QueryService> service;
};

bryql::ServiceRequest RequestFor(const std::string& text, bool closed) {
  bryql::ServiceRequest request;
  request.text = text;
  request.options.num_threads = kServiceQueryThreads;
  if (closed) {
    request.priority = bryql::Priority::kInteractive;
    request.options.deadline =
        std::chrono::milliseconds(kInteractiveDeadlineMs);
  } else {
    request.priority = bryql::Priority::kBatch;
  }
  return request;
}

bryql::ServiceStats Delta(const bryql::ServiceStats& a,
                          const bryql::ServiceStats& b) {
  bryql::ServiceStats d;
  d.rejected_queue_full = b.rejected_queue_full - a.rejected_queue_full;
  d.rejected_deadline = b.rejected_deadline - a.rejected_deadline;
  d.queue_timeouts = b.queue_timeouts - a.queue_timeouts;
  d.retries = b.retries - a.retries;
  d.overload_degraded = b.overload_degraded - a.overload_degraded;
  d.degraded_serial = b.degraded_serial - a.degraded_serial;
  // High-water marks since the service started.
  d.peak_waiting = b.peak_waiting;
  d.peak_running = b.peak_running;
  return d;
}

class ServiceWorkload {
 public:
  explicit ServiceWorkload(uint64_t seed) : seed_(seed), suite_(SuiteTexts()) {
    for (const std::string& text : suite_) {
      auto query = bryql::ParseQuery(text);
      if (!query.ok()) throw std::runtime_error("suite query does not parse");
      closed_.push_back(query->closed());
    }
  }

  const std::vector<std::string>& suite() const { return suite_; }

  ServiceState Setup() const {
    bryql::UniversityConfig config;
    config.students = kServiceStudents;
    config.seed = seed_;
    ServiceState state;
    state.db = std::make_unique<Database>(bryql::MakeUniversity(config));
    state.db->EnableColumnarAll();
    state.processor = std::make_unique<QueryProcessor>(state.db.get());
    bryql::ServiceOptions options;
    options.max_concurrency = kServiceConcurrency;
    options.seed = seed_;
    state.service = std::make_unique<bryql::QueryService>(
        state.processor.get(), options);
    for (size_t q = 0; q < suite_.size(); ++q) {
      // No deadline: a cold first run must not be shed.
      bryql::ServiceRequest request = RequestFor(suite_[q], closed_[q]);
      request.options.deadline = std::chrono::nanoseconds(0);
      auto warm = state.service->Submit(request);
      if (!warm.ok()) {
        throw std::runtime_error("warm-up failed: " +
                                 warm.status().ToString());
      }
    }
    return state;
  }

  /// Plays `seconds` of the arrival schedule. With tracers (one per
  /// sender), each Submit is a span.
  Pass Run(ServiceState& state, const std::vector<Answer>& oracle,
           double seconds, std::vector<Tracer>* tracers) const {
    const std::vector<Arrival> schedule =
        PoissonSchedule(seed_, kServiceRate, seconds, suite_.size());
    struct Outcome {
      enum State { kOk, kMissed, kFailed } state = kOk;
      bool completed = false;
      int64_t latency_ns = 0;
      int64_t lag_ns = 0;
      std::string error;
      std::optional<Counters> counters;
    };
    std::vector<Outcome> outcomes(schedule.size());
    std::vector<LayerSums> layers(kServiceSenders);
    std::atomic<size_t> next{0};
    const bool rss_from_pass = ResetPeakRss();
    const bryql::ServiceStats stats0 = state.service->stats();
    const bryql::PlanCacheStats cache0 = state.processor->cache_stats();
    const Usage usage0 = ProcessUsage();
    const int64_t start = NowNs() + 5'000'000;
    auto sender = [&](size_t k) {
      for (size_t i; (i = next.fetch_add(1)) < schedule.size();) {
        const Arrival& arrival = schedule[i];
        const bool closed = closed_[arrival.query];
        const bryql::ServiceRequest request =
            RequestFor(suite_[arrival.query], closed);
        const int64_t due = start + arrival.due_ns;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        Outcome& o = outcomes[i];
        o.lag_ns = std::max<int64_t>(0, NowNs() - due);
        std::optional<bryql::Result<bryql::ServiceReply>> reply;
        if (tracers != nullptr) {
          ScopedSpan span(&(*tracers)[k], "service.submit", i);
          reply.emplace(state.service->Submit(request));
        } else {
          reply.emplace(state.service->Submit(request));
        }
        o.latency_ns = NowNs() - due;
        if (!reply->ok()) {
          const StatusCode code = reply->status().code();
          const bool refused = code == StatusCode::kResourceExhausted ||
                               code == StatusCode::kDeadlineExceeded;
          o.state = refused ? Outcome::kMissed : Outcome::kFailed;
          o.error = reply->status().ToString();
          continue;
        }
        o.completed = true;
        const Execution& execution = (*reply)->execution;
        if (!SameAnswer(execution.answer, oracle[arrival.query])) {
          o.state = Outcome::kFailed;
          o.error = "wrong answer: " + suite_[arrival.query];
          continue;
        }
        if (closed &&
            o.latency_ns > kInteractiveDeadlineMs * 1'000'000) {
          o.state = Outcome::kMissed;
        }
        o.counters = CountersOf(execution);
        if (tracers != nullptr) {
          ++layers[k].queries;
          layers[k].served += execution.plan_cache_hit ? 1 : 0;
          layers[k].AddExecution(execution);
        }
      }
    };
    std::vector<std::thread> senders;
    for (size_t k = 0; k < kServiceSenders; ++k) {
      senders.emplace_back(sender, k);
    }
    for (std::thread& t : senders) t.join();

    Pass pass;
    pass.rss_from_pass = rss_from_pass;
    AddUsageSince(usage0, &pass.usage);
    pass.service = Delta(stats0, state.service->stats());
    const bryql::PlanCacheStats cache1 = state.processor->cache_stats();
    for (const LayerSums& l : layers) pass.layers.Merge(l);
    pass.layers.lookups = cache1.hits + cache1.misses - cache0.hits -
                          cache0.misses;
    pass.layers.evictions = cache1.evictions - cache0.evictions;
    int64_t last_done = start;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Outcome& o = outcomes[i];
      const bool closed = closed_[schedule[i].query];
      last_done =
          std::max(last_done, start + schedule[i].due_ns + o.latency_ns);
      ++pass.attempted;
      pass.lag_ms.push_back(static_cast<double>(o.lag_ns) / 1e6);
      pass.counters.push_back(o.counters);
      if (o.completed) {
        const double ms = static_cast<double>(o.latency_ns) / 1e6;
        pass.latency_ms.push_back(ms);
        if (closed) pass.interactive_ms.push_back(ms);
      }
      if (o.state == Outcome::kOk) {
        ++pass.ok;
        ++pass.answers;
      } else if (o.state == Outcome::kFailed) {
        pass.Fail(o.error);
      }
    }
    pass.seconds = static_cast<double>(last_done - start) / 1e9;
    return pass;
  }

 private:
  uint64_t seed_;
  std::vector<std::string> suite_;
  std::vector<bool> closed_;
};

// ---------------------------------------------------------------------
// Metrics.

void AddTail(const char* name, const std::vector<double>& samples,
             RunResult* result) {
  const Tail tail = TailPercentile(samples);
  result->metrics.push_back({name, tail.value, "ms"});
  if (tail.quantile < 0.99) {
    result->notes.push_back(std::string(name) + " reports the p" +
                            FormatNumber(tail.quantile * 100) + " of " +
                            std::to_string(samples.size()) +
                            " samples (too few for p99)");
  }
}

void EndToEndMetrics(const Pass& pass, const std::vector<double>& setups,
                     RunResult* result) {
  result->metrics.push_back({"setup_s", Median(setups), "s"});
  result->metrics.push_back({"latency_p50_ms", Median(pass.latency_ms), "ms"});
  AddTail("latency_p99_ms", pass.latency_ms, result);
  result->metrics.push_back(
      {"throughput_qps", static_cast<double>(pass.answers) / pass.seconds,
       "1/s"});
  result->metrics.push_back(
      {"success_frac",
       static_cast<double>(pass.ok) / static_cast<double>(pass.attempted),
       "frac"});
  result->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  if (!pass.rss_from_pass) {
    result->notes.push_back(
        "peak_rss_mb is the whole process's peak: its high-water mark "
        "could not be restarted when the pass began");
  }
  AddTail("interactive_p99_ms", pass.interactive_ms, result);
  result->notes.push_back(
      "samples: " + std::to_string(pass.latency_ms.size()) + " latencies, " +
      std::to_string(pass.interactive_ms.size()) + " interactive, " +
      std::to_string(setups.size()) + " setups");
}

/// Inputs of the per-layer metrics that do not come from the traced
/// pass's own sums.
struct TraceInputs {
  std::map<std::string, SpanTotals> spans;
  double speedup_t4 = 0;
  double overhead_frac = 0;
  double counters_differ_frac = 0;
};

void PerLayerMetrics(const Pass& untraced, const Pass& traced,
                     const TraceInputs& in, RunResult* result) {
  const LayerSums& l = traced.layers;
  const double queries = std::max<double>(1, static_cast<double>(l.queries));
  auto span_us = [&](const char* name, double per) {
    auto it = in.spans.find(name);
    return it == in.spans.end()
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e3 /
                     std::max(1.0, per);
  };
  auto add = [&](std::string name, double value, const char* unit) {
    result->metrics.push_back({std::move(name), value, unit});
  };
  const double parse = span_us("calculus.parse", queries);
  const double normalize = span_us("rewrite.normalize", queries);
  const double translate = span_us("translate.translate", queries);
  const double lower = span_us("exec.lower", queries);
  const double prepare = span_us("core.prepare", queries);
  const double execute = span_us("core.execute", queries);
  add("calculus.parse_us", parse, "us");
  add("rewrite.normalize_us", normalize, "us");
  add("rewrite.steps", static_cast<double>(l.rewrite_steps) / queries,
      "count/req");
  add("translate.translate_us", translate, "us");
  add("exec.lower_us", lower, "us");
  add("core.prepare_us", prepare, "us");
  add("core.execute_us", execute, "us");
  add("core.frontend_share",
      prepare + execute > 0
          ? (parse + normalize + translate + lower) / (prepare + execute)
          : 0,
      "ratio");
  add("core.plan_cache_hit_ratio",
      l.lookups > 0 ? static_cast<double>(l.served) /
                          static_cast<double>(l.lookups)
                    : 0,
      "ratio");
  add("core.plan_cache_evictions", static_cast<double>(l.evictions) / queries,
      "count/req");
  add("core.replans_after_write", static_cast<double>(l.replans) / queries,
      "count/req");
  add("storage.put_us",
      span_us("storage.put", static_cast<double>(l.writes)), "us");
  for (const std::string& kind : OperatorKinds()) {
    auto it = l.op_self_ns.find(kind);
    add("exec.op." + kind + ".self_us",
        it == l.op_self_ns.end() ? 0.0 : it->second / 1e3 / queries, "us");
  }
  const ExecStats& e = l.exec;
  add("exec.tuples_scanned", static_cast<double>(e.tuples_scanned) / queries,
      "count/req");
  add("exec.tuples_materialized",
      static_cast<double>(e.tuples_materialized) / queries, "count/req");
  add("exec.comparisons", static_cast<double>(e.comparisons) / queries,
      "count/req");
  add("exec.hash_probes", static_cast<double>(e.hash_probes) / queries,
      "count/req");
  add("exec.operators", static_cast<double>(e.operators) / queries,
      "count/req");
  add("exec.scanned_per_answer",
      static_cast<double>(e.tuples_scanned) /
          std::max<double>(1, static_cast<double>(l.answer_rows)),
      "ratio");
  add("exec.counters_differ_frac", in.counters_differ_frac, "frac");
  const double segments =
      static_cast<double>(e.segments_scanned + e.segments_pruned);
  add("storage.segments_scanned",
      static_cast<double>(e.segments_scanned) / queries, "count/req");
  add("storage.segments_pruned",
      static_cast<double>(e.segments_pruned) / queries, "count/req");
  add("storage.prune_ratio",
      segments > 0 ? static_cast<double>(e.segments_pruned) / segments : 0,
      "ratio");
  add("exec.parallel_speedup_t4", in.speedup_t4, "x");
  const double requests =
      std::max<double>(1, static_cast<double>(untraced.attempted));
  add("process.cpu_ms_per_query", untraced.usage.cpu_s * 1e3 / requests,
      "ms");
  add("process.cpu_util",
      untraced.seconds > 0 ? untraced.usage.cpu_s / untraced.seconds : 0,
      "cores");
  add("process.ctx_switches_per_query", untraced.usage.switches / requests,
      "count/req");
  const bryql::ServiceStats& s = untraced.service;
  add("service.shed",
      static_cast<double>(s.rejected_deadline + s.rejected_queue_full),
      "count");
  add("service.queue_timeouts", static_cast<double>(s.queue_timeouts),
      "count");
  add("service.retries", static_cast<double>(s.retries), "count");
  add("service.overload_degraded", static_cast<double>(s.overload_degraded),
      "count");
  add("service.degraded_serial", static_cast<double>(s.degraded_serial),
      "count");
  add("service.peak_waiting", static_cast<double>(s.peak_waiting), "count");
  add("service.peak_running", static_cast<double>(s.peak_running), "count");
  add("loadgen.lag_p99_ms",
      untraced.lag_ms.empty() ? 0 : Quantile(untraced.lag_ms, 0.99), "ms");
  add("trace.overhead_frac", in.overhead_frac, "frac");
}

/// Share of requests present in both passes whose exact counters differ.
double CountersDifferFrac(const Pass& a, const Pass& b) {
  size_t common = 0;
  size_t differ = 0;
  for (size_t i = 0; i < std::min(a.counters.size(), b.counters.size()); ++i) {
    if (!a.counters[i] || !b.counters[i]) continue;
    ++common;
    differ += *a.counters[i] == *b.counters[i] ? 0 : 1;
  }
  return common > 0 ? static_cast<double>(differ) / static_cast<double>(common)
                    : 0;
}

void Account(const Pass& pass, RunResult* result) {
  result->failed += pass.failed;
  if (pass.failed > 0) result->correct = false;
  for (const std::string& e : pass.errors) {
    result->notes.push_back("FAILED " + e);
  }
}

void Require(const std::string& problem, RunResult* result) {
  if (problem.empty()) return;
  result->correct = false;
  result->notes.push_back("SELF-TEST FAILED " + problem);
}

double MeanPerOp(const Pass& pass) {
  return pass.seconds /
         std::max<double>(1, static_cast<double>(pass.attempted));
}

void SaveTrace(const RunOptions& options, const std::vector<Span>& spans,
               RunResult* result) {
  if (options.trace_path.empty()) return;
  // The first spans suffice to inspect a run and keep the file small.
  constexpr size_t kMaxWritten = 100000;
  const std::vector<Span> head(
      spans.begin(), spans.begin() + std::min(spans.size(), kMaxWritten));
  result->notes.push_back(
      WriteTrace(options.trace_path, head)
          ? "first " + std::to_string(head.size()) + " of " +
                std::to_string(spans.size()) + " spans written to " +
                options.trace_path
          : "could not write " + options.trace_path);
}

/// Set-up times in seconds; `*state` keeps the last set-up.
template <typename State, typename Setup>
std::vector<double> TimedSetups(const Setup& setup, State* state) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < kMinSetups ||
         (total < kSetupSeconds && seconds.size() < kMaxSetups)) {
    *state = State();
    const int64_t t0 = NowNs();
    *state = setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += seconds.back();
  }
  return seconds;
}

RunResult RunSerial(const RunOptions& options, bool adhoc) {
  RunResult result;
  const SerialWorkload workload(adhoc, options.seed, options.trace);
  if (adhoc) Require(CheckGeneratedTexts(*workload.generator()), &result);
  if (!options.trace) {
    SerialState state;
    const std::vector<double> setups =
        TimedSetups([&] { return workload.Setup(); }, &state);
    const Pass pass = workload.Run(state, options.seconds, nullptr);
    result.attempted = pass.attempted;
    Account(pass, &result);
    EndToEndMetrics(pass, setups, &result);
    return result;
  }
  TraceInputs in;
  Pass untraced;
  {
    SerialState state = workload.Setup();
    in.speedup_t4 = ParallelSpeedup(*state.processor, SuiteTexts());
    untraced = workload.Run(state, options.seconds, nullptr);
  }
  Tracer tracer;
  SerialState state = workload.Setup();
  const Pass traced = workload.Run(state, options.seconds, &tracer);
  result.attempted = traced.attempted;
  Account(untraced, &result);
  Account(traced, &result);
  in.spans = Summarize(tracer.spans());
  in.counters_differ_frac = CountersDifferFrac(untraced, traced);
  if (in.counters_differ_frac != 0) {
    Require("exact counters differ between two serial runs", &result);
  }
  // Cost per operation of the traced path (spans and cache probes, not
  // the replays) relative to the untraced one.
  in.overhead_frac = MeanPerOp(traced) / MeanPerOp(untraced) - 1;
  PerLayerMetrics(untraced, traced, in, &result);
  SaveTrace(options, tracer.spans(), &result);
  return result;
}

RunResult RunService(const RunOptions& options) {
  RunResult result;
  const ServiceWorkload workload(options.seed);
  if (!options.trace) {
    ServiceState state;
    const std::vector<double> setups =
        TimedSetups([&] { return workload.Setup(); }, &state);
    const std::vector<Answer> oracle =
        NestedLoopAnswers(state.db.get(), workload.suite());
    const Pass pass = workload.Run(state, oracle, options.seconds, nullptr);
    result.attempted = pass.attempted;
    Account(pass, &result);
    EndToEndMetrics(pass, setups, &result);
    return result;
  }
  ServiceState state = workload.Setup();
  const std::vector<Answer> oracle =
      NestedLoopAnswers(state.db.get(), workload.suite());
  const Pass untraced = workload.Run(state, oracle, options.seconds, nullptr);
  std::vector<Tracer> tracers(kServiceSenders);
  const Pass traced = workload.Run(state, oracle, options.seconds, &tracers);
  TraceInputs in;
  in.speedup_t4 = ParallelSpeedup(*state.processor, workload.suite());
  Tracer tracer;
  for (Tracer& t : tracers) tracer.Append(std::move(t));
  in.spans = Summarize(tracer.spans());
  // At four threads the first-witness race varies the counters; this is
  // their spread, not a check.
  in.counters_differ_frac = CountersDifferFrac(untraced, traced);
  auto mean_latency = [](const Pass& p) {
    double sum = 0;
    for (double ms : p.latency_ms) sum += ms;
    return sum / std::max<double>(1, static_cast<double>(p.latency_ms.size()));
  };
  in.overhead_frac = mean_latency(traced) / mean_latency(untraced) - 1;
  result.attempted = traced.attempted;
  Account(untraced, &result);
  Account(traced, &result);
  PerLayerMetrics(untraced, traced, in, &result);
  SaveTrace(options, tracer.spans(), &result);
  return result;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  if (options.workload == "suite-warm") {
    result = RunSerial(options, false);
  } else if (options.workload == "adhoc-cold") {
    result = RunSerial(options, true);
  } else if (options.workload == "service-mixed") {
    result = RunService(options);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  Require(CheckSeedStreams(options.seed), &result);
  Require(CheckSelfTimes(), &result);
  return result;
}

}  // namespace perfbench
