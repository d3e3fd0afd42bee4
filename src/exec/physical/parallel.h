#ifndef BRYQL_EXEC_PHYSICAL_PARALLEL_H_
#define BRYQL_EXEC_PHYSICAL_PARALLEL_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "algebra/physical_plan.h"
#include "exec/physical/join_table.h"
#include "exec/physical/operator.h"
#include "storage/columnar/predicate_kernel.h"
#include "storage/relation.h"

namespace bryql {

/// Rows per morsel claim. Aligned with kDefaultBatchSize so one claim
/// feeds one output batch in the common configuration; small enough that
/// skewed partitions rebalance (a worker that finishes early claims more),
/// large enough that the claim atomic is touched ~once per thousand rows.
inline constexpr size_t kMorselSize = 1024;

/// Upper bound on partitions per query: each worker instantiates its own
/// operator tree, so an adversarial num_threads must not translate into
/// unbounded allocation. Far above any useful degree on real hardware.
inline constexpr size_t kMaxWorkers = 64;

/// An atomic dispenser of row ranges over one scan input. Workers claim
/// [begin, end) morsels until the input is exhausted; collectively the
/// claims cover each row exactly once, so parallel scan admissions total
/// exactly the serial count.
class MorselSource {
 public:
  explicit MorselSource(size_t size) : size_(size) {}

  /// Claims the next morsel; false when the input is exhausted.
  bool Claim(size_t* begin, size_t* end) {
    const size_t b = next_.fetch_add(kMorselSize, std::memory_order_relaxed);
    if (b >= size_) return false;
    *begin = b;
    *end = b + kMorselSize < size_ ? b + kMorselSize : size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  std::atomic<size_t> next_{0};
  size_t size_;
};

/// The 64-way sharding of ShardedTupleSet and SharedJoinBuild, chosen
/// from the high bits of the key's in-place hash. A shard's RowIdIndex
/// takes its positions from the low bits of the same mixed hash, so the
/// shard choice and the within-shard slot stay independent.
inline constexpr size_t kShards = 64;
inline size_t ShardOf(size_t hash) {
  return (hash * 0x9e3779b97f4a7c15ULL) >> 58;
}

/// A globally shared dedup set, sharded 64 ways by hash so concurrent
/// inserts from different workers rarely contend. Each shard is a
/// Relation under its lock, so a fresh tuple is stored once. Sharing the
/// set (instead of deduping per worker) is what keeps parallel
/// materialize-admission totals *exactly* equal to serial: each globally
/// fresh tuple is admitted exactly once, by whichever worker wins the
/// insert.
class ShardedTupleSet {
 public:
  explicit ShardedTupleSet(size_t arity) : identity_(arity) {
    for (size_t i = 0; i < arity; ++i) identity_[i] = i;
    for (Shard& shard : shards_) shard.rows = Relation(arity);
  }

  /// Inserts `t`; true when it was fresh (this call inserted it).
  Result<bool> Insert(const Tuple& t) {
    return InsertProjection(t, identity_, [](const Tuple&) {});
  }

  /// Inserts the projection of `t` onto `columns`, hashed and compared in
  /// place. When it is fresh, `on_fresh(stored)` runs under the shard
  /// lock with the stored copy — the only time the shard's rows may be
  /// read while workers still insert.
  template <typename OnFresh>
  Result<bool> InsertProjection(const Tuple& t,
                                const std::vector<size_t>& columns,
                                OnFresh&& on_fresh) {
    const size_t hash = t.HashOf(columns);
    Shard& shard = shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    BRYQL_ASSIGN_OR_RETURN(bool fresh,
                           shard.rows.InsertProjection(t, columns, hash));
    if (fresh) on_fresh(shard.rows.rows().back());
    return fresh;
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.rows.size();
    }
    return n;
  }

  /// Moves every stored row out, shard by shard (after the phase
  /// barrier): the rows are pairwise distinct by construction.
  std::vector<Tuple> TakeRows() {
    std::vector<Tuple> all;
    all.reserve(size());
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (Tuple& t : shard.rows.TakeRows()) all.push_back(std::move(t));
    }
    return all;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    Relation rows;
  };
  std::vector<size_t> identity_;
  std::array<Shard, kShards> shards_;
};

/// The shared build side of one parallel hash/complement join, sharded 64
/// ways by the build key's in-place hash. Each shard holds what a serial
/// HashJoinOp holds: a JoinTable (kInner/kLeftOuter, build rows with
/// per-key chains) or a key-column Relation (kSemi/kAnti/kMark,
/// membership only). Built concurrently by the build phase's workers
/// under per-shard locks; after the phase barrier the probe phase reads
/// it lock-free (the fork/join edges of RunOnWorkers provide the
/// happens-before).
class SharedJoinBuild {
 public:
  /// `build_columns` are the build rows' key columns; `table_mode` keeps
  /// whole rows (inner/outer), otherwise only the distinct keys.
  SharedJoinBuild(std::vector<size_t> build_columns, bool table_mode)
      : build_columns_(std::move(build_columns)), table_mode_(table_mode) {
    for (Shard& shard : shards_) {
      shard.table = JoinTable(build_columns_);
      shard.keys = Relation(build_columns_.size());
    }
  }

  /// Build phase (locked): adds one build row. True for every table row;
  /// for key sets, whether the key was fresh.
  Result<bool> Insert(const Tuple& row) {
    const size_t hash = row.HashOf(build_columns_);
    Shard& shard = shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!table_mode_) {
      return shard.keys.InsertProjection(row, build_columns_, hash);
    }
    BRYQL_RETURN_NOT_OK(shard.table.Insert(row, hash));
    return true;
  }

  /// Probe phase (lock-free; only valid after the build phase barrier):
  /// the shard structures a key of in-place hash `hash` lives in.
  const JoinTable& table(size_t hash) const {
    return shards_[ShardOf(hash)].table;
  }
  const Relation& keys(size_t hash) const {
    return shards_[ShardOf(hash)].keys;
  }
  /// True when the build side produced no tuple.
  bool empty() const {
    for (const Shard& shard : shards_) {
      if (!shard.table.empty() || !shard.keys.empty()) return false;
    }
    return true;
  }

 private:
  struct Shard {
    std::mutex mutex;
    JoinTable table;
    Relation keys;
  };
  std::vector<size_t> build_columns_;
  bool table_mode_;
  std::array<Shard, kShards> shards_;
};

/// The coordinator's registry of everything a parallel pipeline shares,
/// keyed by PhysicalNode identity. Populated single-threaded between
/// phases (PrepareSpine), read concurrently by workers during a phase —
/// the maps themselves are never mutated while workers run.
///
/// PlanRuntime::Build consults this registry (via PhysicalContext::shared)
/// when instantiating a worker's operator tree:
///   * a node in `rows` (a blocking operator's result or a boolean
///     subtree's truth relation, both already sets) becomes a
///     RelationScanOp over the borrowed rows, partitioned by the node's
///     morsel source — PlanRuntime::ShareRows registers both;
///   * a scan node in `morsels` reads from the shared dispenser instead
///     of scanning [0, n) privately, and a columnar scan node in
///     `dict_matches` shares its dictionary match tables;
///   * a join node in `builds` skips its build side entirely and probes
///     the shared table;
///   * a project/union node in `seen_sets` dedups against the global
///     sharded set instead of a private one.
struct ParallelShared {
  template <typename T>
  using ByNode = std::unordered_map<const PhysicalNode*, std::unique_ptr<T>>;

  ByNode<MorselSource> morsels;
  ByNode<std::vector<Tuple>> rows;
  ByNode<SharedJoinBuild> builds;
  ByNode<ShardedTupleSet> seen_sets;
  ByNode<DictMatchTables> dict_matches;

  MorselSource* FindMorsels(const PhysicalNode* node) const {
    return Find(morsels, node);
  }
  const std::vector<Tuple>* FindRows(const PhysicalNode* node) const {
    return Find(rows, node);
  }
  const SharedJoinBuild* FindBuild(const PhysicalNode* node) const {
    return Find(builds, node);
  }
  ShardedTupleSet* FindSeen(const PhysicalNode* node) const {
    return Find(seen_sets, node);
  }
  DictMatchTables* FindDictMatches(const PhysicalNode* node) const {
    return Find(dict_matches, node);
  }

 private:
  template <typename T>
  static T* Find(const ByNode<T>& map, const PhysicalNode* node) {
    auto it = map.find(node);
    return it == map.end() ? nullptr : it->second.get();
  }
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_PARALLEL_H_
