#ifndef BRYQL_COMMON_GOVERNOR_H_
#define BRYQL_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <string>

#include "common/status.h"

namespace bryql {

/// A thread-safe cancellation flag. The evaluating thread polls it through
/// the ResourceGovernor; any other thread may call Cancel() to abort the
/// evaluation, which then surfaces as StatusCode::kCancelled.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token for a fresh evaluation.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-evaluation resource limits. The zero-argument default is safe for
/// interactive use: no deadline and no tuple budgets, but finite guards on
/// query size, nesting depth, and rewrite steps so adversarial *inputs*
/// cannot smash the stack or spin the rewriter even when the caller sets
/// nothing. A zero value means "unlimited" for every field.
struct QueryOptions {
  /// Wall-clock deadline for the whole evaluation (parse → rewrite →
  /// translate → execute). 0 = none.
  std::chrono::nanoseconds deadline{0};
  /// Cap on tuples inserted into intermediate state (hash tables, dedup
  /// sets, materialized results). 0 = unlimited.
  size_t max_materialized_tuples = 0;
  /// Cap on tuples read out of base relations. 0 = unlimited.
  size_t max_scanned_tuples = 0;
  /// Cap on query text size in bytes. 0 = unlimited.
  size_t max_query_bytes = 1 << 20;
  /// Cap on formula nesting depth (parser recursion and the ASTs accepted
  /// by QueryProcessor). 0 = unlimited. Sized so every recursive pass
  /// over the AST stays stack-safe even under sanitizers.
  size_t max_formula_depth = 256;
  /// Cap on algebra plan depth accepted by the executor. Translation can
  /// deepen the tree, so the default is a multiple of max_formula_depth.
  size_t max_plan_depth = 2048;
  /// Cap on normalization rule applications. The rule system terminates
  /// (Proposition 1), so this only turns a rewriter bug into a
  /// diagnosable kResourceExhausted instead of a hang.
  size_t max_rewrite_steps = 200000;
  /// Optional external abort switch; must outlive the evaluation. The
  /// governor polls it at every operator instantiation (CheckNow) and
  /// every ResourceGovernor::kCheckInterval = 1024 admissions/ticks —
  /// see the cadence note on ResourceGovernor::Tick.
  const CancellationToken* cancellation = nullptr;
  /// Inert and ignored (every run is serial); kept so existing callers,
  /// the benchmark among them, still compile.
  size_t num_threads = 0;
  /// Skip the plan cache for this run: preparation runs cold and the
  /// result is not cached. A degradation rung of the service layer — a
  /// plan suspected of being poisoned (e.g. it keeps failing while peers
  /// succeed) is rebuilt from the text without evicting anything.
  bool bypass_plan_cache = false;

  /// Everything unlimited — the pre-governor behaviour, for benchmarks.
  static QueryOptions Unlimited();
};

/// Tracks one evaluation's resource consumption against a QueryOptions
/// budget. The hot-path entry points (AdmitScan / AdmitMaterialize /
/// Tick) are branch-cheap bools: a counter bump, a budget compare, and —
/// every kCheckInterval calls — a clock read and cancellation poll. The
/// first violation is latched into status() and every later admission
/// fails, so iterator pipelines simply stop and the driving loop
/// propagates the latched Status.
///
/// Polling cadence (the authoritative statement — DESIGN.md §5 defers
/// here): deadline and cancellation are polled every kCheckInterval =
/// 1024 *admissions/ticks* (not batches, and not "a few thousand" —
/// exactly 1024, a power of two so the hot-path modulo is a mask), plus
/// once per operator instantiation via CheckNow(). Batch size does not
/// change the cadence: a 1024-tuple batch and 1024 single-tuple pulls
/// poll equally often, because the counter advances per admission.
///
/// A governor is single-evaluation, single-thread state (only the
/// CancellationToken it polls is shared); create one per Run.
class ResourceGovernor {
 public:
  /// Ungoverned: all admissions succeed (modulo nothing), no deadline.
  ResourceGovernor() : ResourceGovernor(QueryOptions::Unlimited()) {}

  explicit ResourceGovernor(const QueryOptions& options);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Counts one base-relation tuple read. False once any limit trips.
  bool AdmitScan() {
    if (++scanned_ > max_scanned_) {
      TripBudget("scanned", scanned_ - 1, max_scanned_);
      return false;
    }
    return Tick();
  }

  /// Counts `n` base-relation tuple reads in one step — the columnar
  /// scan's segment-granular admission. The final `scanned()` total is
  /// exactly the total of n per-row AdmitScan calls (bulk admission is a
  /// counter reshape, not a discount), so row and columnar executions of
  /// the same plan report bit-identical budget counters. The deadline /
  /// cancellation slow path runs once per call — one poll
  /// per segment of kCheckInterval rows, the same cadence the row path's
  /// per-admission tick mask produces.
  bool AdmitScanBulk(size_t n) {
    if (n == 0) return !tripped();
    scanned_ += n;
    if (scanned_ > max_scanned_) {
      TripBudget("scanned", scanned_ - n, max_scanned_);
      return false;
    }
    ticks_ += n;
    return SlowCheck();
  }

  /// Counts one tuple inserted into intermediate state.
  bool AdmitMaterialize() {
    if (++materialized_ > max_materialized_) {
      TripBudget("materialized", materialized_ - 1, max_materialized_);
      return false;
    }
    return Tick();
  }

  /// A unit of work that consumes no tuple budget (e.g. one iteration of
  /// a join or product inner loop). Every kCheckInterval admissions/ticks
  /// it polls deadline and cancellation, so pipelines that filter
  /// everything out still stop.
  bool Tick() {
    if ((++ticks_ & (kCheckInterval - 1)) != 0) return !tripped();
    return SlowCheck();
  }

  /// Deadline/cancellation poll as a Status, for operator-open call
  /// sites.
  Status CheckNow() {
    if (!SlowCheck()) return status_;
    return Status::Ok();
  }

  /// Depth admission for recursive descent (plan construction). Pair with
  /// ExitDepth; the companion RAII type below does so automatically.
  bool EnterDepth() {
    if (++depth_ > max_plan_depth_) {
      if (status_.ok()) {
        status_ = Status::ResourceExhausted(
            "plan depth exceeds limit (" + std::to_string(max_plan_depth_) +
            ")");
      }
      --depth_;
      return false;
    }
    return true;
  }
  void ExitDepth() { --depth_; }

  /// Latches an externally detected violation (fault injection, callers
  /// with their own checks). First trip wins.
  void Trip(Status status) {
    if (status_.ok() && !status.ok()) status_ = std::move(status);
  }

  bool tripped() const { return !status_.ok(); }
  /// The first violation, or OK. Driving loops check this after an
  /// iterator chain reports exhaustion to distinguish "input consumed"
  /// from "budget tripped".
  const Status& status() const { return status_; }

  const QueryOptions& options() const { return options_; }
  size_t scanned() const { return scanned_; }
  size_t materialized() const { return materialized_; }

  /// Deadline/cancel poll period, in admissions/ticks. Power of two so
  /// the hot-path modulo is a mask.
  static constexpr size_t kCheckInterval = 1024;

 private:
  bool SlowCheck();
  void TripBudget(const char* what, size_t used, size_t limit);

  QueryOptions options_;
  size_t max_scanned_;
  size_t max_materialized_;
  size_t max_plan_depth_;
  bool has_deadline_;
  std::chrono::steady_clock::time_point deadline_at_;
  const CancellationToken* cancellation_;

  size_t scanned_ = 0;
  size_t materialized_ = 0;
  size_t ticks_ = 0;
  size_t depth_ = 0;
  Status status_;
};

/// RAII depth admission: `GovernorDepthGuard guard(gov); if (!guard.ok())
/// return gov->status();`.
class GovernorDepthGuard {
 public:
  explicit GovernorDepthGuard(ResourceGovernor* governor)
      : governor_(governor), ok_(governor->EnterDepth()) {}
  ~GovernorDepthGuard() {
    if (ok_) governor_->ExitDepth();
  }
  GovernorDepthGuard(const GovernorDepthGuard&) = delete;
  GovernorDepthGuard& operator=(const GovernorDepthGuard&) = delete;
  bool ok() const { return ok_; }

 private:
  ResourceGovernor* governor_;
  bool ok_;
};

}  // namespace bryql

#endif  // BRYQL_COMMON_GOVERNOR_H_
