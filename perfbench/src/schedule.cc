#include "schedule.h"

#include <cstdio>

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

uint64_t DeriveSeed(uint64_t workload_seed, Stream stream, uint64_t index) {
  return SplitMix64(SplitMix64(workload_seed ^
                               (static_cast<uint64_t>(stream) << 56)) +
                    index);
}

double UnitFromSeed(uint64_t seed) {
  return static_cast<double>(SplitMix64(seed) >> 11) * 0x1.0p-53;
}

std::string SqlStatement(uint64_t workload_seed, int64_t i, int64_t orders) {
  const uint64_t base =
      DeriveSeed(workload_seed, Stream::kSqlLiterals, static_cast<uint64_t>(i));
  const auto u = [&](uint64_t k) { return UnitFromSeed(base + k); };
  // Narrow ranges: each shape's cost stays close to its mean, so the
  // latency distribution does not depend on a handful of draws.
  const std::string percent = Fmt("%.1f", 28.0 + 4.0 * u(1));
  const std::string rows =
      std::to_string(static_cast<int64_t>((0.48 + 0.04 * u(2)) *
                                          static_cast<double>(orders)));
  const std::string price = Fmt("%.2f", 50.0 + 100.0 * u(3));
  const std::string f = "l_discount*(1.0-l_tax)";
  switch (i % kSqlShapes) {
    case 0:
      return "SELECT SUM(" + f + ") FROM l TABLESAMPLE (" + percent +
             " PERCENT), o TABLESAMPLE (" + rows +
             " ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > " +
             price;
    case 1:
      return "SELECT SUM(" + f + "), QUANTILE(SUM(" + f +
             "), 0.05), QUANTILE(SUM(" + f + "), 0.95) FROM l TABLESAMPLE (" +
             percent + " PERCENT), o TABLESAMPLE (" + rows +
             " ROWS) WHERE l_orderkey = o_orderkey AND l_extendedprice > " +
             price;
    case 2:
      return "SELECT SUM(l_extendedprice), COUNT(*), AVG(l_discount) FROM l "
             "TABLESAMPLE (" + percent + " PERCENT), o TABLESAMPLE (" + rows +
             " ROWS), c WHERE l_orderkey = o_orderkey AND o_custkey = "
             "c_custkey AND l_quantity < " +
             std::to_string(34 + static_cast<int>(3.0 * u(4)));
    default:
      return "SELECT SUM(o_totalprice) FROM o TABLESAMPLE (" + percent +
             " PERCENT), c WHERE o_custkey = c_custkey GROUP BY c_nationkey";
  }
}

ServedStep ServedSchedule(uint64_t workload_seed, int clients, int client,
                          int64_t i) {
  ServedStep step;
  step.global_index = i * clients + client;
  step.query = static_cast<int>((i + client) % 2);
  step.repeat = i % 4 == 3;
  const int64_t source = step.repeat ? i - 2 : i;
  if (step.repeat) step.repeat_of = source * clients + client;
  step.seed = DeriveSeed(workload_seed, Stream::kServed,
                         static_cast<uint64_t>(source * clients + client));
  return step;
}

SegmentQuery SegmentQueryAt(uint64_t workload_seed, int64_t i) {
  static constexpr double kSelectivity[3] = {0.02, 0.30, 1.0};
  SegmentQuery q;
  const int64_t shape = i % kSegmentShapes;
  q.wor = shape % 2 == 0;
  q.selectivity = kSelectivity[shape / 2];
  q.bernoulli_p = 0.05;
  q.wor_fraction = 0.02;
  q.seed = DeriveSeed(workload_seed, Stream::kQuery, static_cast<uint64_t>(i));
  return q;
}

}  // namespace perfbench
