// Order statistics the benchmark reports, and its wall-clock helper.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Milliseconds of wall time since `t0`.
inline double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

/// \brief The tail latency the benchmark reports.
///
/// The highest percentile that still has at least `min_beyond` samples
/// strictly above it: with n sorted samples that is the order statistic at
/// index n - 1 - min_beyond, i.e. percentile 100 * (n - min_beyond) / n.
/// `valid` is false when n <= min_beyond (no such percentile exists); the
/// value is then the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
  bool valid = false;
};
Tail TailPercentile(std::vector<double> values, int64_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
