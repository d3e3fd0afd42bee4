// Pins the four deterministic counters — tuples scanned, tuples
// materialized, comparisons, hash probes — of every paper-suite query.
// These counters are the engine's primary regression signal: a change to
// tuple representation, hashing or operator internals must leave them
// exactly as they are, so any move here is a change of plan shape or of
// operator semantics and has to be explained, not re-recorded.
//
// Three settings, all at seed 7, serial:
//   * the default MakeUniversity (200 students) under the four
//     paper-method strategies;
//   * kClassical on a 40-student university (its cartesian products make
//     the 200-student suite run for minutes);
//   * kBry on 2000 students with every column store built, the data of
//     perfbench's suite-warm workload.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/query_processor.h"
#include "workload/university.h"

namespace bryql {
namespace {

struct Counters {
  const char* query;
  Strategy strategy;
  size_t scanned;
  size_t materialized;
  size_t comparisons;
  size_t probes;
};

const Counters kDefaultUniversity[] = {
    {"sec1-running", Strategy::kBry, 2993, 2060, 4265, 2405},
    {"sec22-q1", Strategy::kBry, 1914, 1897, 4176, 2210},
    {"sec23-q1", Strategy::kBry, 780, 355, 783, 7},
    {"sec23-q4", Strategy::kBry, 903, 233, 920, 31},
    {"sec31-q1", Strategy::kBry, 533, 517, 533, 240},
    {"sec31-q2", Strategy::kBry, 533, 277, 533, 240},
    {"sec32-pipeline", Strategy::kBry, 1392, 396, 1397, 1269},
    {"sec32-boolean", Strategy::kBry, 2993, 2060, 4265, 2405},
    {"open-attenders-all-db", Strategy::kBry, 1724, 1672, 4260, 2400},
    {"open-misses-some-db", Strategy::kBry, 1524, 1660, 4060, 2200},
    {"open-phd-or-prof-speakers", Strategy::kBry, 1728, 721, 1872, 384},
    {"open-negated-disjunct", Strategy::kBry, 693, 478, 716, 223},
    {"open-three-way-filter", Strategy::kBry, 1205, 458, 1482, 477},
    {"open-universal-language", Strategy::kBry, 442, 442, 520, 320},
    {"open-mixed-quantifiers", Strategy::kBry, 1682, 1671, 4408, 2408},
    {"closed-every-phd-attends", Strategy::kBry, 1528, 528, 328, 264},
    {"sec1-running", Strategy::kBryDivision, 2853, 757, 325, 1469},
    {"sec22-q1", Strategy::kBryDivision, 1724, 449, 436, 1304},
    {"sec23-q1", Strategy::kBryDivision, 780, 355, 783, 7},
    {"sec23-q4", Strategy::kBryDivision, 903, 233, 920, 31},
    {"sec31-q1", Strategy::kBryDivision, 533, 517, 533, 240},
    {"sec31-q2", Strategy::kBryDivision, 533, 277, 533, 240},
    {"sec32-pipeline", Strategy::kBryDivision, 1392, 396, 1397, 1269},
    {"sec32-boolean", Strategy::kBryDivision, 2853, 757, 325, 1469},
    {"open-attenders-all-db", Strategy::kBryDivision, 1784, 380, 320, 1664},
    {"open-misses-some-db", Strategy::kBryDivision, 1524, 1660, 4060, 2200},
    {"open-phd-or-prof-speakers", Strategy::kBryDivision, 1728, 721, 1872, 384},
    {"open-negated-disjunct", Strategy::kBryDivision, 693, 478, 716, 223},
    {"open-three-way-filter", Strategy::kBryDivision, 1205, 458, 1482, 477},
    {"open-universal-language", Strategy::kBryDivision, 408, 363, 0, 396},
    {"open-mixed-quantifiers", Strategy::kBryDivision, 1692, 369, 208, 1672},
    {"closed-every-phd-attends", Strategy::kBryDivision, 1528, 528, 328, 264},
    {"sec1-running", Strategy::kBryUnionFilters, 2993, 2060, 4265, 2405},
    {"sec22-q1", Strategy::kBryUnionFilters, 2114, 1897, 4176, 2383},
    {"sec23-q1", Strategy::kBryUnionFilters, 844, 483, 846, 6},
    {"sec23-q4", Strategy::kBryUnionFilters, 903, 230, 905, 16},
    {"sec31-q1", Strategy::kBryUnionFilters, 533, 517, 533, 240},
    {"sec31-q2", Strategy::kBryUnionFilters, 533, 277, 533, 240},
    {"sec32-pipeline", Strategy::kBryUnionFilters, 1392, 396, 1397, 1269},
    {"sec32-boolean", Strategy::kBryUnionFilters, 2993, 2060, 4265, 2405},
    {"open-attenders-all-db", Strategy::kBryUnionFilters, 1724, 1672, 4260, 2400},
    {"open-misses-some-db", Strategy::kBryUnionFilters, 1524, 1660, 4060, 2200},
    {"open-phd-or-prof-speakers", Strategy::kBryUnionFilters, 2032, 849, 2160, 608},
    {"open-negated-disjunct", Strategy::kBryUnionFilters, 893, 478, 893, 400},
    {"open-three-way-filter", Strategy::kBryUnionFilters, 1605, 542, 1605, 600},
    {"open-universal-language", Strategy::kBryUnionFilters, 442, 442, 520, 320},
    {"open-mixed-quantifiers", Strategy::kBryUnionFilters, 1682, 1671, 4408, 2408},
    {"closed-every-phd-attends", Strategy::kBryUnionFilters, 1528, 528, 328, 264},
    {"sec1-running", Strategy::kQuelCounting, 2913, 790, 1794, 1614},
    {"sec22-q1", Strategy::kQuelCounting, 1734, 472, 1845, 1449},
    {"sec23-q1", Strategy::kQuelCounting, 780, 355, 783, 7},
    {"sec23-q4", Strategy::kQuelCounting, 903, 233, 920, 31},
    {"sec31-q1", Strategy::kQuelCounting, 533, 517, 533, 240},
    {"sec31-q2", Strategy::kQuelCounting, 533, 277, 533, 240},
    {"sec32-pipeline", Strategy::kQuelCounting, 1392, 396, 1397, 1269},
    {"sec32-boolean", Strategy::kQuelCounting, 2913, 790, 1794, 1614},
    {"open-attenders-all-db", Strategy::kQuelCounting, 1844, 413, 1789, 1809},
    {"open-misses-some-db", Strategy::kQuelCounting, 1524, 1660, 4060, 2200},
    {"open-phd-or-prof-speakers", Strategy::kQuelCounting, 1728, 721, 1872, 384},
    {"open-negated-disjunct", Strategy::kQuelCounting, 693, 478, 716, 223},
    {"open-three-way-filter", Strategy::kQuelCounting, 1205, 458, 1482, 477},
    {"open-universal-language", Strategy::kQuelCounting, 414, 370, 555, 595},
    {"open-mixed-quantifiers", Strategy::kQuelCounting, 1702, 392, 1617, 1817},
    {"closed-every-phd-attends", Strategy::kQuelCounting, 1528, 528, 328, 264},
};

const Counters kSmallClassical[] = {
    {"sec1-running", Strategy::kClassical, 5500, 452827, 6948756, 5467996},
    {"sec22-q1", Strategy::kClassical, 1594, 2138, 3857, 3807},
    {"sec23-q1", Strategy::kClassical, 414, 204, 320, 10},
    {"sec23-q4", Strategy::kClassical, 658, 628, 375, 123},
    {"sec31-q1", Strategy::kClassical, 278, 295, 914, 500},
    {"sec31-q2", Strategy::kClassical, 278, 254, 914, 500},
    {"sec32-pipeline", Strategy::kClassical, 571, 380, 1133, 582},
    {"sec32-boolean", Strategy::kClassical, 5500, 452827, 6948756, 5467996},
    {"open-attenders-all-db", Strategy::kClassical, 1534, 2031, 3618, 3596},
    {"open-misses-some-db", Strategy::kClassical, 767, 526, 1698, 1600},
    {"open-phd-or-prof-speakers", Strategy::kClassical, 1230, 1558, 644, 334},
    {"open-negated-disjunct", Strategy::kClassical, 472, 575, 278, 174},
    {"open-three-way-filter", Strategy::kClassical, 1048, 1104, 469, 267},
    {"open-universal-language", Strategy::kClassical, 478, 377, 684, 722},
    {"open-mixed-quantifiers", Strategy::kClassical, 1586, 2069, 36720, 25836},
    {"closed-every-phd-attends", Strategy::kClassical, 2021, 2131, 2897, 2320},
};

const Counters kSuiteWarmBry[] = {
    {"sec1-running", Strategy::kBry, 28989, 20276, 42011, 24005},
    {"sec22-q1", Strategy::kBry, 18512, 18569, 37032, 21530},
    {"sec23-q1", Strategy::kBry, 6839, 3299, 19, 7},
    {"sec23-q4", Strategy::kBry, 7555, 2059, 30, 6},
    {"sec31-q1", Strategy::kBry, 4439, 4318, 2050, 2040},
    {"sec31-q2", Strategy::kBry, 4439, 2278, 2050, 2040},
    {"sec32-pipeline", Strategy::kBry, 13135, 3920, 12477, 12467},
    {"sec32-boolean", Strategy::kBry, 28989, 20276, 42011, 24005},
    {"open-attenders-all-db", Strategy::kBry, 16522, 16379, 42006, 24000},
    {"open-misses-some-db", Strategy::kBry, 14522, 16276, 40006, 22000},
    {"open-phd-or-prof-speakers", Strategy::kBry, 15101, 6269, 3146, 3122},
    {"open-negated-disjunct", Strategy::kBry, 6399, 4526, 2269, 2251},
    {"open-three-way-filter", Strategy::kBry, 10625, 4506, 4618, 4596},
    {"open-universal-language", Strategy::kBry, 3199, 3199, 520, 320},
    {"open-mixed-quantifiers", Strategy::kBry, 16480, 16290, 44008, 24008},
    {"closed-every-phd-attends", Strategy::kBry, 15071, 5218, 2609, 2609},
};

/// Runs every row of `expected` and compares its counters exactly. Each
/// query of the suite must appear once per strategy listed.
void ExpectCounters(Database* db, const Counters* begin, const Counters* end) {
  std::map<std::string, std::string> texts;
  for (const NamedQuery& nq : PaperQuerySuite()) texts[nq.name] = nq.text;
  QueryProcessor qp(db);
  std::map<Strategy, size_t> per_strategy;
  for (const Counters* c = begin; c != end; ++c) {
    const std::string label =
        std::string(c->query) + " [" + StrategyName(c->strategy) + "]";
    ASSERT_EQ(texts.count(c->query), 1u) << label;
    auto run = qp.Run(texts[c->query], c->strategy);
    ASSERT_TRUE(run.ok()) << label << ": " << run.status();
    EXPECT_EQ(run->stats.tuples_scanned, c->scanned) << label;
    EXPECT_EQ(run->stats.tuples_materialized, c->materialized) << label;
    EXPECT_EQ(run->stats.comparisons, c->comparisons) << label;
    EXPECT_EQ(run->stats.hash_probes, c->probes) << label;
    ++per_strategy[c->strategy];
  }
  for (const auto& [strategy, count] : per_strategy) {
    EXPECT_EQ(count, texts.size()) << StrategyName(strategy);
  }
}

TEST(SuiteCountersTest, DefaultUniversityUnderPaperStrategies) {
  UniversityConfig config;
  config.seed = 7;
  Database db = MakeUniversity(config);
  ExpectCounters(&db, std::begin(kDefaultUniversity),
                 std::end(kDefaultUniversity));
}

TEST(SuiteCountersTest, SmallUniversityUnderClassical) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = 7;
  Database db = MakeUniversity(config);
  ExpectCounters(&db, std::begin(kSmallClassical), std::end(kSmallClassical));
}

TEST(SuiteCountersTest, SuiteWarmDataUnderBry) {
  UniversityConfig config;
  config.students = 2000;
  config.seed = 7;
  Database db = MakeUniversity(config);
  db.EnableColumnarAll();
  ExpectCounters(&db, std::begin(kSuiteWarmBry), std::end(kSuiteWarmBry));
}

}  // namespace
}  // namespace bryql
