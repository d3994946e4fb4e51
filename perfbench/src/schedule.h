// Seeded inputs of every workload: data seeds, query seeds, the probe's
// SQL text and the served repeat schedule. Everything here is a pure
// function of the workload seed, so one seed always gives the same query
// sequence.

#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Independent streams derived from one workload seed.
enum class Stream : uint64_t {
  kData = 1,
  kQuery = 2,
  kSqlLiterals = 3,
  kServed = 4,
  kProbe = 5,
};

/// SplitMix64-mixed value of (workload_seed, stream, index).
uint64_t DeriveSeed(uint64_t workload_seed, Stream stream, uint64_t index);

/// Uniform double in [0, 1) from a derived seed.
double UnitFromSeed(uint64_t seed);

/// \brief The i-th SQL statement the sqlish probe parses and plans, over a
/// catalog of `orders` orders: shape i % 4 is Query 1, the 5%/95% quantile
/// view, the three-way l ⋈ o ⋈ c join, and the GROUP BY c_nationkey sum.
/// Sample rates and literals are drawn from the workload seed.
std::string SqlStatement(uint64_t workload_seed, int64_t i, int64_t orders);
inline constexpr int kSqlShapes = 4;

/// \brief One request of the served workload's closed loop.
///
/// Client `client` of `clients` issues its i-th request as global request
/// n = i * clients + client. Queries alternate per client (q1, ex4, ...).
/// Requests with i % 4 == 3 repeat the (query, seed) pair of the same
/// client's request i - 2, a fresh pair issued 2 * clients global requests
/// earlier and already answered in the closed loop, so every repeat is a
/// cache hit. All other pairs are fresh, so they miss.
struct ServedStep {
  int query = 0;  ///< 0 = q1, 1 = ex4
  uint64_t seed = 0;
  bool repeat = false;
  int64_t global_index = 0;
  int64_t repeat_of = -1;  ///< global index of the repeated request
};
ServedStep ServedSchedule(uint64_t workload_seed, int clients, int client,
                          int64_t i);

/// \brief The i-th query of the segments_oversize rotation.
///
/// Shape i % 6 crosses the sampler (WOR of 2% of rows, Bernoulli(0.05))
/// with an l_orderkey range that keeps about 2%, 30% or 100% of rows; the
/// sampler seed is fresh per query.
struct SegmentQuery {
  bool wor = true;
  double selectivity = 1.0;
  double bernoulli_p = 0.0;  ///< when !wor
  double wor_fraction = 0.0; ///< when wor: n / lineitem rows
  uint64_t seed = 0;
};
SegmentQuery SegmentQueryAt(uint64_t workload_seed, int64_t i);
inline constexpr int kSegmentShapes = 6;

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
