#ifndef BRYQL_EXEC_PHYSICAL_PARALLEL_H_
#define BRYQL_EXEC_PHYSICAL_PARALLEL_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "algebra/physical_plan.h"
#include "exec/physical/operator.h"
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

/// The 64-way sharding of ShardedTupleSet and SharedJoinBuild.
/// unordered_set consumes a hash's low bits; the shard takes mixed high
/// bits so the shard choice is independent of the within-shard bucket.
inline constexpr size_t kShards = 64;
inline size_t ShardOf(const Tuple& t) {
  return (TupleHash{}(t) * 0x9e3779b97f4a7c15ULL) >> 58;
}

/// A globally shared dedup set, sharded 64 ways by tuple hash so
/// concurrent inserts from different workers rarely contend. Sharing the
/// set (instead of deduping per worker) is what keeps parallel
/// materialize-admission totals *exactly* equal to serial: each globally
/// fresh tuple is admitted exactly once, by whichever worker wins the
/// insert.
class ShardedTupleSet {
 public:
  /// True when `t` was fresh (this call inserted it).
  bool Insert(const Tuple& t) {
    Shard& shard = shards_[ShardOf(t)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.set.insert(t).second;
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.set.size();
    }
    return n;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    TupleSet set;
  };
  std::array<Shard, kShards> shards_;
};

/// The shared build side of one parallel hash/complement join: a 64-way
/// key-sharded multimap (kInner/kLeftOuter, partner values kept) or key
/// set (kSemi/kAnti/kMark, membership only). Built concurrently by the
/// build phase's workers under per-shard locks; after the phase barrier
/// the probe phase reads it lock-free (the fork/join edges of RunOnWorkers
/// provide the happens-before).
class SharedJoinBuild {
 public:
  /// Build phase (locked). InsertKey returns whether the key was fresh.
  void InsertTable(const Tuple& key, const Tuple& value) {
    Shard& shard = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.table[key].push_back(value);
  }
  bool InsertKey(const Tuple& key) {
    Shard& shard = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.keys.insert(key).second;
  }

  /// Probe phase (lock-free; only valid after the build phase barrier).
  const std::vector<Tuple>* Find(const Tuple& key) const {
    const Shard& shard = shards_[ShardOf(key)];
    auto it = shard.table.find(key);
    return it == shard.table.end() ? nullptr : &it->second;
  }
  bool Contains(const Tuple& key) const {
    const Shard& shard = shards_[ShardOf(key)];
    return shard.keys.count(key) != 0;
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
    TupleMultiMap table;  // kInner, kLeftOuter
    TupleSet keys;        // kSemi, kAnti, kMark
  };
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
///     of scanning [0, n) privately;
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

 private:
  template <typename T>
  static T* Find(const ByNode<T>& map, const PhysicalNode* node) {
    auto it = map.find(node);
    return it == map.end() ? nullptr : it->second.get();
  }
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_PARALLEL_H_
