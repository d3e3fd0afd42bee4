// Shared helpers of the bryql benchmark: a portable seeded RNG, clocks,
// order statistics and the metric record every workload reports.
#ifndef BRYQL_PERFBENCH_COMMON_H_
#define BRYQL_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/query_processor.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the same seed gives the same sequence on every platform
/// and standard library, which std:: distributions do not promise.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  size_t Uniform(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A stateless mix of two words, for random access into seeded streams.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  return Rng(a * 0x9e3779b97f4a7c15ull ^ b).Next();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> values);

/// The tail percentile a sample supports: p99 when at least ten samples
/// lie beyond it, else the highest quantile that keeps ten beyond it
/// (nearest rank), but never below the median. `quantile` records which
/// one was taken.
struct Tail {
  double quantile = 0;
  double value = 0;
};
Tail TailPercentile(std::vector<double> values);

/// Nearest-rank quantile, q in (0, 1].
double Quantile(std::vector<double> values, double q);

/// Same truth value, or the same set of answer tuples.
bool SameAnswer(const bryql::Answer& a, const bryql::Answer& b);

/// Answer rows: tuples of an open answer, 1 for a closed one.
size_t AnswerRows(const bryql::Answer& answer);

/// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

/// Restarts the process's resident-set high-water mark at its current
/// resident set (Linux /proc/self/clear_refs); false where unsupported.
bool ResetPeakRss();

/// Peak resident set size of this process since the last ResetPeakRss()
/// (since its start if none succeeded), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // BRYQL_PERFBENCH_COMMON_H_
