#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> values, int64_t min_beyond) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const int64_t n = tail.samples;
  if (n <= min_beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  const int64_t k = n - 1 - min_beyond;
  tail.value = values[static_cast<size_t>(k)];
  tail.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  tail.beyond = min_beyond;
  tail.valid = true;
  return tail;
}

}  // namespace perfbench
