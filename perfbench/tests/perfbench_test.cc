// Self-tests of the benchmark's own logic: seeded schedules, the tail
// percentile rule, span self time, and the served repeat schedule.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "schedule.h"
#include "serve/view_cache.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using namespace perfbench;

void SameSeedSameSequences() {
  for (const uint64_t seed : {1ull, 7ull, 123456789ull}) {
    for (int64_t i = 0; i < 64; ++i) {
      CHECK(SqlStatement(seed, i, 256000) == SqlStatement(seed, i, 256000));
      CHECK(DeriveSeed(seed, Stream::kQuery, i) ==
            DeriveSeed(seed, Stream::kQuery, i));
      const SegmentQuery a = SegmentQueryAt(seed, i);
      const SegmentQuery b = SegmentQueryAt(seed, i);
      CHECK(a.seed == b.seed && a.wor == b.wor &&
            a.selectivity == b.selectivity && a.bernoulli_p == b.bernoulli_p &&
            a.wor_fraction == b.wor_fraction);
      for (int c = 0; c < 2; ++c) {
        const ServedStep x = ServedSchedule(seed, 2, c, i);
        const ServedStep y = ServedSchedule(seed, 2, c, i);
        CHECK(x.seed == y.seed && x.query == y.query && x.repeat == y.repeat);
      }
    }
  }
  // Another seed gives other literals and query seeds.
  int differ = 0;
  for (int64_t i = 0; i < 16; ++i) {
    differ += SqlStatement(1, i, 256000) != SqlStatement(2, i, 256000);
    CHECK(DeriveSeed(1, Stream::kQuery, i) != DeriveSeed(2, Stream::kQuery, i));
  }
  CHECK(differ >= 12);
  // The rotation covers every SQL shape and every segment shape.
  CHECK(SqlStatement(1, 3, 256000).find("GROUP BY c_nationkey") !=
        std::string::npos);
  CHECK(SqlStatement(1, 1, 256000).find("QUANTILE") != std::string::npos);
  std::set<std::pair<bool, double>> shapes;
  for (int64_t i = 0; i < kSegmentShapes; ++i) {
    const SegmentQuery q = SegmentQueryAt(1, i);
    shapes.insert({q.wor, q.selectivity});
  }
  CHECK(shapes.size() == static_cast<size_t>(kSegmentShapes));
}

void TailPercentileRule() {
  std::vector<double> v;
  for (int i = 30; i >= 1; --i) v.push_back(i);  // unsorted input
  const Tail t = TailPercentile(v);
  CHECK(t.valid);
  CHECK(t.samples == 30 && t.beyond == 10);
  CHECK(t.value == 20.0);  // exactly ten samples (21..30) above it
  CHECK(std::abs(t.percentile - 100.0 * 20.0 / 30.0) < 1e-12);
  int above = 0;
  for (double x : v) above += x > t.value;
  CHECK(above == 10);

  std::vector<double> eleven(11);
  for (int i = 0; i < 11; ++i) eleven[i] = i;
  const Tail e = TailPercentile(eleven);
  CHECK(e.valid && e.value == 0.0);  // the only percentile with 10 beyond

  const Tail few = TailPercentile({3.0, 1.0, 2.0});
  CHECK(!few.valid && few.value == 3.0 && few.samples == 3);

  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void SpanSelfTime() {
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 30, 0, 1};
  spans[2] = {"b", 20, 50, 0, 1};   // overlaps a: covered once
  spans[3] = {"c", 90, 120, 0, 1};  // clipped to the parent's end
  spans[4] = {"d", 12, 18, 1, 1};   // grandchild: only a loses it
  const std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 100 - ((50 - 10) + (100 - 90)));
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);

  // Per-request reduction: sum or max of same-named spans.
  std::vector<Span> shards = {{"shard", 0, 4000000, -1, 7},
                              {"shard", 0, 6000000, -1, 7},
                              {"shard", 0, 1000000, -1, 8}};
  const std::vector<int64_t> d = DurationsNs(shards);
  const std::vector<double> sum = PerRequestMs(shards, d, "shard");
  const std::vector<double> max = PerRequestMs(shards, d, "shard", true);
  CHECK(sum.size() == 2 && sum[0] == 10.0 && sum[1] == 1.0);
  CHECK(max.size() == 2 && max[0] == 6.0 && max[1] == 1.0);

  Tracer off(false);
  CHECK(off.Begin("x", -1, 1) == -1);
  CHECK(off.spans().empty());
}

// Simulates the closed loop under random completion orders against the
// real view cache: every repeat must hit and every other request miss.
void ServedRepeatsAlwaysHit() {
  std::mt19937_64 rng(42);
  for (int clients = 1; clients <= 4; ++clients) {
    for (uint64_t seed : {1ull, 99ull}) {
      gus::ViewCache cache;
      std::vector<int64_t> next(clients, 0);
      std::vector<ServedStep> in_flight(clients);
      const auto key = [](const ServedStep& s) {
        gus::ViewCacheKey k;
        k.query_fingerprint = static_cast<uint64_t>(s.query);
        k.seed = s.seed;
        return k;
      };
      const auto issue = [&](int c) {
        const ServedStep step = ServedSchedule(seed, clients, c, next[c]++);
        const bool hit = cache.Lookup(key(step)).has_value();
        CHECK(hit == step.repeat);
        if (step.repeat) {
          CHECK(step.global_index - step.repeat_of > clients);
          const ServedStep source =
              ServedSchedule(seed, clients, c, next[c] - 3);
          CHECK(source.global_index == step.repeat_of);
          CHECK(source.query == step.query && !source.repeat);
        }
        in_flight[c] = step;
      };
      for (int c = 0; c < clients; ++c) issue(c);
      for (int n = 0; n < 400; ++n) {
        const int c = static_cast<int>(rng() % clients);
        if (!in_flight[c].repeat) {
          cache.Insert(key(in_flight[c]), "state");
        }
        issue(c);
      }
      CHECK(cache.hits() > 0 && cache.misses() > 0);
    }
  }
}

}  // namespace

int main() {
  SameSeedSameSequences();
  TailPercentileRule();
  SpanSelfTime();
  ServedRepeatsAlwaysHit();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
