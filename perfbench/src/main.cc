// perfbench — one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--git-sha SHA] [--build-id ID]
//
// Generates the workload's inputs from the seed, sets it up several times
// (setup_s is the median), runs a closed loop for S seconds, and checks
// answers against references. With --trace 0 the last stdout line carries
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run (half the time untraced, half traced, then layer probe
// rounds) and the spans are written to DIR/trace-NAME-SEED.json. The exit
// code is 0 only when every check passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kProbeRounds = 3;
/// Every loop collects at least this many answers so the tail percentile
/// (ten samples beyond it) exists; a loop may overrun --seconds for it.
constexpr int64_t kMinSamples = 24;

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "sqlish.parse_plan_ms", "sqlish.catalog_convert_ms",
      "plan.prepare_ms", "plan.parallel_ms", "plan.sink_fold_ms",
      "plan.morsels", "plan.rows_emitted",
      "sampling.wor_subtree_ms", "sampling.keep_rows",
      "kernels.join_build_ms", "kernels.pivot_scan_ms",
      "est.sbox_finish_ms", "est.wire_bytes", "est.wire_encode_ms",
      "est.wire_decode_ms",
      "dist.shard_exec_ms", "dist.gather_ms",
      "serve.socket_overhead_ms", "serve.cache_hit_frac",
      "serve.cache_hit_ms", "serve.shard_retries", "serve.requests_served",
      "serve.daemon_start_ms",
      "store.decode_ms", "store.faults", "store.hits", "store.evictions",
      "store.bytes_read", "store.skip_frac", "store.write_ms",
      "store.open_ms",
      "util.pool_threads_spawned", "util.pool_wakeups",
      "trace.query_ms.p50", "trace.overhead_ms", "trace.request_self_ms"};
  return names;
}

std::string UnitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms") || name == "trace.query_ms.p50") return "ms";
  if (ends("_frac")) return "fraction";
  if (ends("_bytes") || name == "store.bytes_read") return "bytes";
  return "count";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
  std::string build_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--build-id") {
      args->build_id = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

struct LoopResult {
  std::vector<double> ms;  ///< answered queries only
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
};

/// Checks every loop must pass: no failed query, and enough answers for
/// the tail percentile (a loop that hit its hard deadline may have fewer).
void CheckLoop(const char* name, const LoopResult& loop,
               std::vector<std::string>* errors) {
  if (loop.failed > 0) {
    errors->push_back(std::string(name) + " loop: " +
                      std::to_string(loop.failed) + " of " +
                      std::to_string(loop.attempted) + " queries failed");
  }
  if (static_cast<int64_t>(loop.ms.size()) < kMinSamples) {
    errors->push_back(std::string(name) + " loop: " +
                      std::to_string(loop.ms.size()) + " answers, fewer than " +
                      std::to_string(kMinSamples));
  }
}

/// Closed loop: each client sends its next request only after the last
/// one returned. Indices continue across loops (next_index per client).
LoopResult RunLoop(BenchWorkload* wl, double seconds, Tracer* tracer,
                   std::atomic<uint64_t>* next_request,
                   std::vector<int64_t>* next_index) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const auto hard_deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(4 * seconds));
  LoopResult out;
  std::mutex mu;
  std::atomic<int64_t> done{0};
  const auto client_loop = [&](int client) {
    for (;;) {
      const auto now = Clock::now();
      int64_t& next = (*next_index)[static_cast<size_t>(client)];
      const bool at_boundary = next % wl->rotation() == 0;
      if (at_boundary && (now >= hard_deadline ||
                          (now >= deadline && done.load() >= kMinSamples))) {
        break;
      }
      const int64_t i = next++;
      const uint64_t request = next_request->fetch_add(1);
      const auto q0 = Clock::now();
      gus::Status st;
      {
        ScopedSpan root(tracer, "request", -1, request);
        st = wl->Query(client, i, tracer, root.id(), request);
      }
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - q0).count();
      done.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      ++out.attempted;
      if (st.ok()) {
        out.ms.push_back(ms);
      } else {
        ++out.failed;
        std::fprintf(stderr, "[perfbench] query failed: %s\n",
                     st.ToString().c_str());
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 1; c < wl->clients(); ++c) clients.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : clients) t.join();
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

std::string MetricsJson(const std::map<std::string, double>& values,
                        const std::vector<std::string>& order,
                        const std::map<std::string, std::string>& units) {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : order) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(name) + ": {\"value\": " + JsonNumber(values.at(name)) +
           ", \"unit\": " + JsonQuote(units.at(name)) + "}";
  }
  return out + "}";
}

std::string ObjectJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(k) + ":" + JsonNumber(v);
  }
  return out + "}";
}

/// Compares exact counts with the ones an earlier run of the same build
/// and seed recorded; returns the names that moved (and records them the
/// first time).
std::vector<std::string> CheckExactAcrossRuns(
    const std::string& path, const std::map<std::string, double>& exact) {
  std::vector<std::string> moved;
  std::ifstream in(path);
  if (in) {
    std::string name;
    double value = 0.0;
    std::map<std::string, double> earlier;
    while (in >> name >> value) earlier[name] = value;
    for (const auto& [k, v] : exact) {
      auto it = earlier.find(k);
      if (it != earlier.end() && it->second != v) moved.push_back(k);
    }
    return moved;
  }
  std::ofstream out(path);
  out.precision(17);
  for (const auto& [k, v] : exact) out << k << " " << v << "\n";
  return moved;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  RunEnv env;
  env.seed = args.seed;
  env.threads = HostThreads();
  env.work_dir = args.work_dir;
  std::unique_ptr<BenchWorkload> wl = MakeWorkload(args.workload, env);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  const std::string host =
      HostFingerprintJson(args.seed, PERFBENCH_BUILD_TYPE, args.git_sha);
  std::printf("{\"host\": %s}\n", host.c_str());

  using Clock = std::chrono::steady_clock;
  const auto fail = [](const gus::Status& st, const char* what) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 st.ToString().c_str());
    return 1;
  };

  // Inputs in memory (not part of set-up).
  auto t0 = Clock::now();
  if (gus::Status st = wl->Generate(); !st.ok()) return fail(st, "generate");
  const double gen_s = std::chrono::duration<double>(Clock::now() - t0).count();

  // Set-up, several times; the last one stays live.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    t0 = Clock::now();
    if (gus::Status st = wl->SetUp(); !st.ok()) return fail(st, "set-up");
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  wl->AfterSetUp();

  std::atomic<uint64_t> next_request{1};
  std::vector<int64_t> next_index(static_cast<size_t>(wl->clients()), 0);
  Tracer off(false);
  Tracer tracer(args.trace);
  LoopResult untraced, traced;
  LayerResults layers;
  RssWatcher rss;
  if (!args.trace) {
    untraced = RunLoop(wl.get(), args.seconds, &off, &next_request,
                       &next_index);
  } else {
    untraced = RunLoop(wl.get(), args.seconds / 2, &off, &next_request,
                       &next_index);
    traced = RunLoop(wl.get(), args.seconds / 2, &tracer, &next_request,
                     &next_index);
  }

  // The measured phase only: not generation, set-up, the gate or probes.
  const double peak_rss_mb = rss.Stop();

  // Correctness gate, outside the timed region.
  std::vector<std::string> errors;
  CheckLoop("untraced", untraced, &errors);
  if (args.trace) CheckLoop("traced", traced, &errors);
  if (peak_rss_mb <= 0.0) errors.push_back("resident set size unreadable");
  const int64_t checked = wl->Verify(&errors);
  if (checked == 0) errors.push_back("no answer was checked");

  if (args.trace) {
    auto probe = wl->Probe();
    if (!probe.ok()) return fail(probe.status(), "probe set-up");
    if (gus::Status st =
            RunLayerProbes(probe.ValueOrDie(), &tracer,
                           next_request.fetch_add(kProbeRounds), kProbeRounds,
                           &layers);
        !st.ok()) {
      return fail(st, "layer probes");
    }
    for (const std::string& e : layers.errors) errors.push_back(e);
  }

  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.failed + traced.failed;
  const Tail tail = TailPercentile(untraced.ms);

  std::map<std::string, double> info = wl->Info();
  info["gen_s"] = gen_s;
  info["query_ms.tail_percentile"] = tail.percentile;
  info["query_ms.samples"] = static_cast<double>(tail.samples);
  info["failed_frac"] = attempted > 0 ? static_cast<double>(failed) /
                                            static_cast<double>(attempted)
                                      : 0.0;
  info["checked_answers"] = static_cast<double>(checked);
  info["clients"] = wl->clients();

  std::map<std::string, double> values;
  std::vector<std::string> order;
  std::map<std::string, std::string> units;
  if (!args.trace) {
    values = {{"query_ms.p50", Median(untraced.ms)},
              {"query_ms.tail", tail.value},
              {"queries_per_s",
               static_cast<double>(untraced.ms.size()) / untraced.wall_s},
              {"setup_s", Median(setup_s)},
              {"peak_rss_mb", peak_rss_mb}};
    order = {"query_ms.p50", "query_ms.tail", "queries_per_s", "setup_s",
             "peak_rss_mb"};
    units = {{"query_ms.p50", "ms"}, {"query_ms.tail", "ms"},
             {"queries_per_s", "1/s"}, {"setup_s", "s"},
             {"peak_rss_mb", "MiB"}};
  } else {
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    const double untraced_p50 = Median(untraced.ms);
    const double traced_p50 = Median(traced.ms);
    values = layers.values;
    values["trace.query_ms.p50"] = traced_p50;
    values["trace.overhead_ms"] = traced_p50 - untraced_p50;
    values["trace.request_self_ms"] =
        Median(PerRequestMs(spans, self, "request"));
    info["untraced_query_ms.p50"] = untraced_p50;
    const double phases = values["plan.prepare_ms"] +
                          values["plan.parallel_ms"] +
                          values["plan.sink_fold_ms"];
    info["plan.phases_ms"] = phases;
    info["plan.estimate_ms"] = Median(PerRequestMs(spans, DurationsNs(spans), "plan.estimate"));
    order = PerLayerNames();
    for (const std::string& name : order) {
      units[name] = UnitOf(name);
      if (values.find(name) == values.end()) {
        errors.push_back("per-layer metric " + name + " was not measured");
        values[name] = 0.0;
      }
    }
    // Exact counts must repeat for the same build and seed.
    const std::vector<std::string> moved = CheckExactAcrossRuns(
        args.work_dir + "/exact-" + args.build_id + "-" + args.workload +
            "-" + std::to_string(args.seed) + ".txt",
        layers.exact);
    for (const std::string& name : moved) {
      std::fprintf(stderr,
                   "[perfbench] FLAG: exact count %s moved since an earlier "
                   "run with the same build and seed\n",
                   name.c_str());
    }
    info["exact_counts_moved"] = static_cast<double>(moved.size());
    const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    std::ofstream out(trace_path);
    out << "{\"workload\": " << JsonQuote(args.workload)
        << ", \"host\": " << host << ",\n\"spans\": " << SpansToJson(spans)
        << "}\n";
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty();
  std::printf("{\"info\": %s}\n", ObjectJson(info).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), MetricsJson(values, order, units).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
