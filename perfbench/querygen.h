// Seeded request streams: the shuffled paper suite, the ad-hoc text
// stream with catalog writes, and the open-loop arrival schedule. Every
// stream is a pure function of its seed (see StreamBytes).
#ifndef BRYQL_PERFBENCH_QUERYGEN_H_
#define BRYQL_PERFBENCH_QUERYGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// The 16 PaperQuerySuite() texts, in suite order.
std::vector<std::string> SuiteTexts();

/// The suite in seeded shuffled order: each cycle of 16 requests is a
/// fresh Fisher-Yates permutation of the suite indexes.
class SuiteOrder {
 public:
  SuiteOrder(uint64_t seed, size_t suite_size);
  size_t Next();

 private:
  Rng rng_;
  std::vector<size_t> cycle_;
  size_t position_;
};

/// One operation of the ad-hoc stream: a query text from the pool, or
/// (every kWriteEvery-th operation) a catalog write that replaces one
/// relation with a regenerated one.
struct AdhocOp {
  bool write = false;
  size_t text = 0;           // index into AdhocGenerator::pool()
  std::string relation;      // written relation
  uint64_t write_seed = 0;   // seed of the regenerated rows
};

/// Distinct query texts derived from the 16 suite templates by constant
/// substitution (within the constant's sort), bound-variable renaming and
/// conjunct/disjunct reordering. The pool is far larger than the plan
/// cache, so a uniform draw from it almost always misses.
class AdhocGenerator {
 public:
  static constexpr size_t kPoolSize = 4096;
  static constexpr size_t kWriteEvery = 25;

  explicit AdhocGenerator(uint64_t seed);

  const std::vector<std::string>& pool() const { return pool_; }
  /// Operation `i` of the stream; random access, no hidden state.
  AdhocOp Op(size_t i) const;

 private:
  uint64_t seed_;
  std::vector<std::string> pool_;
};

/// Relations the ad-hoc stream rewrites, in rotation.
const std::vector<std::string>& WriteRelations();

/// One open-loop arrival: when it is due (ns after the start) and which
/// suite query it asks.
struct Arrival {
  int64_t due_ns = 0;
  size_t query = 0;
};

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// their count: round(rate * seconds) arrival times drawn uniformly and
/// sorted, asking the suite's queries in SuiteOrder. Conditioning on the
/// count and the suite cycles keep the offered load and mix identical
/// across seeds.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds, size_t suite_size);

}  // namespace perfbench

#endif  // BRYQL_PERFBENCH_QUERYGEN_H_
