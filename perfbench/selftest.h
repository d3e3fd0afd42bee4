// Self-tests of the benchmark's own machinery. Each returns an empty
// string on success, or what went wrong.
#ifndef BRYQL_PERFBENCH_SELFTEST_H_
#define BRYQL_PERFBENCH_SELFTEST_H_

#include <cstdint>
#include <string>

#include "querygen.h"

namespace perfbench {

/// The first `n` requests of `workload`'s stream under `seed`, serialized
/// byte for byte.
std::string StreamBytes(const std::string& workload, uint64_t seed,
                        size_t n);

/// Every workload's request stream is byte-identical when regenerated from
/// `seed`, and differs under `seed + 1`.
std::string CheckSeedStreams(uint64_t seed);

/// Every text of the ad-hoc pool parses, normalizes and prepares (so no
/// template variant is unsafe or untranslatable).
std::string CheckGeneratedTexts(const AdhocGenerator& generator);

/// SelfTimes on a synthetic span tree with overlapping, nested and
/// out-of-bounds children.
std::string CheckSelfTimes();

}  // namespace perfbench

#endif  // BRYQL_PERFBENCH_SELFTEST_H_
