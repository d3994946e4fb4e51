#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "est/streaming.h"
#include "plan/soa_transform.h"
#include "schedule.h"
#include "serve/daemon.h"
#include "serve/session.h"
#include "serve/view_cache.h"
#include "store/segment_catalog.h"

namespace perfbench {

using gus::ExecMode;
using gus::Result;
using gus::Status;

namespace {

constexpr int64_t kLargeOrders = 1000000;  // ~4.0M lineitems
constexpr int64_t kMidOrders = 256000;     // ~1.0M lineitems

gus::Catalog GenerateCatalog(const RunEnv& env, int64_t orders) {
  gus::TpchConfig config;
  config.num_orders = orders;
  config.num_customers = orders / 10;
  config.num_parts = 60;
  config.max_lineitems_per_order = 7;
  config.seed = DeriveSeed(env.seed, Stream::kData, 0);
  // The parallel layout: the same instance for every thread count >= 2.
  config.gen_threads = std::max(2, env.threads);
  gus::TpchData data = gus::GenerateTpch(config);
  // Moved, not copied (MakeCatalog copies): peak memory stays one catalog.
  gus::Catalog catalog;
  catalog["l"] = std::move(data.lineitem);
  catalog["o"] = std::move(data.orders);
  catalog["c"] = std::move(data.customer);
  catalog["p"] = std::move(data.part);
  return catalog;
}

gus::Query1Params Q1Params(int64_t orders) {
  gus::Query1Params p;
  p.lineitem_p = 0.5;
  p.orders_n = orders / 2;
  p.orders_population = orders;
  p.price_threshold = 100.0;
  return p;
}

gus::SboxOptions Section7() {
  gus::SboxOptions options;
  options.subsample = gus::SubsampleConfig{};
  return options;
}

gus::ExecOptions MorselExec(int threads, int64_t morsel_rows) {
  gus::ExecOptions exec;
  exec.engine = gus::ExecEngine::kMorselParallel;
  exec.num_threads = threads;
  exec.morsel_rows = morsel_rows;
  return exec;
}

Status WarmColumnar(gus::ColumnarCatalog* catalog,
                    std::initializer_list<const char*> relations) {
  for (const char* rel : relations) {
    GUS_ASSIGN_OR_RETURN(const gus::ColumnarRelation* r, catalog->Get(rel));
    (void)r;
    GUS_ASSIGN_OR_RETURN(uint64_t fp, catalog->Fingerprint(rel));
    (void)fp;
  }
  return Status::OK();
}

/// Answers kept for the correctness gate, keyed by (client, index).
template <typename Answer>
class Kept {
 public:
  void Put(int client, int64_t i, Answer a) {
    std::lock_guard<std::mutex> lock(mu_);
    answers_.emplace(std::make_pair(client, i), std::move(a));
  }
  std::map<std::pair<int, int64_t>, Answer> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return answers_;
  }

 private:
  std::mutex mu_;
  std::map<std::pair<int, int64_t>, Answer> answers_;
};

// ---------------------------------------------------------------------------
// q1_inmem: Query 1 over 1M orders on the morsel engine, catalog resident.

class Q1InMem final : public BenchWorkload {
 public:
  explicit Q1InMem(const RunEnv& env)
      : env_(env),
        params_(Q1Params(kLargeOrders)),
        q1_(gus::MakeQuery1(params_)),
        exec_(MorselExec(env.threads, 32768)) {}

  Status Generate() override {
    catalog_ = GenerateCatalog(env_, kLargeOrders);
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(q1_.plan));
    gus_ = soa.top;
    return Status::OK();
  }

  Status SetUp() override {
    columnar_.reset();
    columnar_ = std::make_unique<gus::ColumnarCatalog>(&catalog_);
    GUS_RETURN_NOT_OK(WarmColumnar(columnar_.get(), {"l", "o"}));
    return Run(DeriveSeed(env_.seed, Stream::kProbe, 7), exec_).status();
  }

  Status Query(int client, int64_t i, Tracer* tracer, int64_t parent,
               uint64_t request) override {
    const uint64_t seed =
        DeriveSeed(env_.seed, Stream::kQuery, static_cast<uint64_t>(i));
    gus::SboxReport report;
    {
      ScopedSpan span(tracer, "plan.estimate_parallel", parent, request);
      GUS_ASSIGN_OR_RETURN(report, Run(seed, exec_));
    }
    if (i < kVerify) kept_.Put(client, i, report);
    return Status::OK();
  }

  int64_t Verify(std::vector<std::string>* errors) override {
    gus::ExecOptions one = exec_;
    one.num_threads = 1;
    int64_t checked = 0;
    for (const auto& [key, got] : kept_.Take()) {
      const uint64_t seed = DeriveSeed(env_.seed, Stream::kQuery,
                                       static_cast<uint64_t>(key.second));
      auto want = Run(seed, one);
      ++checked;
      if (!want.ok() || !SameReportBits(got, want.ValueOrDie())) {
        errors->push_back("q1_inmem query " + std::to_string(key.second) +
                          " differs from its 1-thread reference");
      }
    }
    return checked;
  }

  Result<ProbeContext*> Probe() override {
    probe_.row_catalog = &catalog_;
    probe_.columnar = columnar_.get();
    probe_.q1_params = params_;
    probe_.q1 = q1_;
    probe_.q1_gus = gus_;
    probe_.sbox = Section7();
    probe_.exec = exec_;
    probe_.work_dir = env_.work_dir;
    probe_.seed = env_.seed;
    return &probe_;
  }

  std::map<std::string, double> Info() const override {
    return {{"orders", static_cast<double>(catalog_.at("o").num_rows())},
            {"lineitems", static_cast<double>(catalog_.at("l").num_rows())},
            {"threads", static_cast<double>(exec_.num_threads)},
            {"morsel_rows", static_cast<double>(exec_.morsel_rows)}};
  }

 private:
  static constexpr int64_t kVerify = 2;

  Result<gus::SboxReport> Run(uint64_t seed, const gus::ExecOptions& exec) {
    gus::Rng rng(seed);
    return gus::EstimatePlanParallel(q1_.plan, columnar_.get(), &rng,
                                     q1_.aggregate, gus_, Section7(),
                                     ExecMode::kSampled, exec);
  }

  RunEnv env_;
  gus::Query1Params params_;
  gus::Workload q1_;
  gus::GusParams gus_;
  gus::ExecOptions exec_;
  gus::Catalog catalog_;
  std::unique_ptr<gus::ColumnarCatalog> columnar_;
  Kept<gus::SboxReport> kept_;
  ProbeContext probe_;
};

// ---------------------------------------------------------------------------
// served: two in-process gusd daemons over Unix sockets, one coordinator.

class Served final : public BenchWorkload {
 public:
  explicit Served(const RunEnv& env)
      : env_(env), params_(Q1Params(kMidOrders)) {
    queries_[0] = gus::MakeQuery1(params_);
    gus::Example4Params ex4;
    ex4.lineitem_p = 0.5;
    ex4.orders_n = kMidOrders / 2;
    ex4.orders_population = kMidOrders;
    ex4.part_p = 0.5;
    queries_[1] = gus::MakeExample4(ex4);
  }

  Status Generate() override {
    catalog_ = GenerateCatalog(env_, kMidOrders);
    for (int q = 0; q < 2; ++q) {
      GUS_ASSIGN_OR_RETURN(gus::SoaResult soa,
                           gus::SoaTransform(queries_[q].plan));
      gus_[q] = soa.top;
    }
    return Status::OK();
  }

  Status SetUp() override {
    fleet_.reset();
    std::vector<std::pair<std::string, gus::ServedQuery>> served;
    for (int q = 0; q < 2; ++q) {
      gus::ServedQuery query;
      query.plan = queries_[q].plan;
      query.f_expr = queries_[q].aggregate;
      query.gus = gus_[q];
      query.sbox = Section7();
      served.emplace_back(kNames[q], std::move(query));
    }
    std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons;
    for (int k = 0; k < kDaemons; ++k) {
      daemons.push_back(std::make_unique<gus::WorkerDaemon>(catalog_));
    }
    Tracer off(false);
    fleet_ = std::make_unique<Fleet>();
    GUS_RETURN_NOT_OK(StartFleet(
        std::move(daemons), served,
        env_.work_dir + "/served-" + std::to_string(::getpid()), &off, 0,
        fleet_.get()));
    cache_ = std::make_unique<gus::ViewCache>();
    gus::ServedRequest req = Request(DeriveSeed(env_.seed, Stream::kProbe, 7));
    req.use_cache = false;
    return fleet_->coordinator->Execute(kNames[0], req).status();
  }

  int clients() const override { return 2; }
  int64_t rotation() const override { return 4; }  // ServedSchedule's period

  Status Query(int client, int64_t i, Tracer* tracer, int64_t parent,
               uint64_t request) override {
    const ServedStep step = ServedSchedule(env_.seed, clients(), client, i);
    gus::ServedResult result;
    {
      ScopedSpan span(tracer, "serve.coordinator_execute", parent, request);
      GUS_ASSIGN_OR_RETURN(result,
                           fleet_->coordinator->Execute(kNames[step.query],
                                                        Request(step.seed)));
    }
    kept_.Put(client, i, result);
    return Status::OK();
  }

  int64_t Verify(std::vector<std::string>* errors) override {
    const auto kept = kept_.Take();
    std::map<int64_t, const gus::ServedResult*> by_global;
    for (const auto& [key, r] : kept) {
      by_global[ServedSchedule(env_.seed, clients(), key.first, key.second)
                    .global_index] = &r;
    }
    int64_t checked = 0, misses = 0;
    int checked_per_query[2] = {0, 0};
    for (const auto& [key, got] : kept) {
      const ServedStep step =
          ServedSchedule(env_.seed, clients(), key.first, key.second);
      if (got.cache_hit != step.repeat) {
        errors->push_back("served request " +
                          std::to_string(step.global_index) +
                          (step.repeat ? " should have hit the cache"
                                       : " should have missed the cache"));
        continue;
      }
      if (!step.repeat) ++misses;
      if (step.repeat) {
        // A hit must carry the bits of the miss it repeats.
        auto it = by_global.find(step.repeat_of);
        ++checked;
        if (it == by_global.end() ||
            !SameReportBits(got.report, it->second->report)) {
          errors->push_back("served hit " + std::to_string(step.global_index) +
                            " differs from the miss it repeats");
        }
        continue;
      }
      if (checked_per_query[step.query] >= 2) continue;
      ++checked_per_query[step.query];
      ++checked;
      // Reference: the one-shot in-process kSharded path.
      gus::ExecOptions exec;
      exec.morsel_rows = kMorselRows;
      auto want = gus::ShardedSboxEstimate(
          queries_[step.query].plan, catalog_, step.seed, ExecMode::kSampled,
          exec, kShards, queries_[step.query].aggregate, gus_[step.query],
          Section7());
      if (!want.ok() || !SameReportBits(got.report, want.ValueOrDie())) {
        errors->push_back("served request " +
                          std::to_string(step.global_index) +
                          " differs from one-shot kSharded");
      }
    }
    const int64_t served = fleet_->requests_served();
    // Set-up's request plus every miss ran on the fleet, one request per
    // shard.
    if (served != (misses + 1) * kShards) {
      errors->push_back("daemons served " + std::to_string(served) +
                        " shard requests, expected (misses + 1) x shards = " +
                        std::to_string((misses + 1) * kShards));
    }
    return checked;
  }

  Result<ProbeContext*> Probe() override {
    probe_columnar_ = std::make_unique<gus::ColumnarCatalog>(&catalog_);
    GUS_RETURN_NOT_OK(WarmColumnar(probe_columnar_.get(), {"l", "o"}));
    probe_.row_catalog = &catalog_;
    probe_.columnar = probe_columnar_.get();
    probe_.q1_params = params_;
    probe_.q1 = queries_[0];
    probe_.q1_gus = gus_[0];
    probe_.sbox = Section7();
    probe_.exec = MorselExec(env_.threads, kMorselRows);
    probe_.work_dir = env_.work_dir;
    probe_.seed = env_.seed;
    return &probe_;
  }

  std::map<std::string, double> Info() const override {
    return {{"orders", static_cast<double>(catalog_.at("o").num_rows())},
            {"lineitems", static_cast<double>(catalog_.at("l").num_rows())},
            {"daemons", kDaemons},
            {"clients", 2},
            {"shards_per_request", kShards},
            {"morsel_rows", kMorselRows}};
  }

 private:
  static constexpr int kDaemons = 2;
  static constexpr int kShards = 2;
  static constexpr int64_t kMorselRows = 8192;
  static constexpr const char* kNames[2] = {"q1", "ex4"};

  gus::ServedRequest Request(uint64_t seed) const {
    gus::ServedRequest req;
    req.seed = seed;
    req.num_shards = kShards;
    req.morsel_rows = kMorselRows;
    req.num_threads = 1;
    req.use_cache = true;
    req.cache = cache_.get();
    return req;
  }

  RunEnv env_;
  gus::Query1Params params_;
  gus::Workload queries_[2];
  gus::GusParams gus_[2];
  gus::Catalog catalog_;
  std::unique_ptr<gus::ViewCache> cache_;
  std::unique_ptr<Fleet> fleet_;  // destroyed first: it uses cache_
  std::unique_ptr<gus::ColumnarCatalog> probe_columnar_;
  Kept<gus::ServedResult> kept_;
  ProbeContext probe_;
};

// ---------------------------------------------------------------------------
// segments_oversize: the 1M-order catalog as .gseg files behind a segment
// cache far smaller than the decoded lineitem relation.

class SegmentsOversize final : public BenchWorkload {
 public:
  explicit SegmentsOversize(const RunEnv& env)
      : env_(env),
        params_(Q1Params(kLargeOrders)),
        exec_(MorselExec(env.threads, kSegmentRows)),
        dir_(env.work_dir + "/segments-" + std::to_string(::getpid())) {}

  ~SegmentsOversize() override {
    segments_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Status Generate() override {
    catalog_ = GenerateCatalog(env_, kLargeOrders);
    orders_ = catalog_.at("o").num_rows();
    lineitems_ = catalog_.at("l").num_rows();
    return Status::OK();
  }

  Status SetUp() override {
    segments_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    GUS_RETURN_NOT_OK(gus::WriteCatalogSegments(catalog_, dir_, kSegmentRows));
    gus::SegmentCacheOptions options;
    options.max_bytes = kCacheBytes;
    GUS_ASSIGN_OR_RETURN(segments_, gus::SegmentCatalog::Open(dir_, options));
    return Run(SegmentQueryAt(DeriveSeed(env_.seed, Stream::kProbe, 7), 0),
               segments_.get())
        .status();
  }

  // Only set-up and the references read the row catalog: the measured
  // phase holds just the segment catalog, so peak_rss_mb is the store's.
  // Verify regenerates it from the seed.
  void AfterSetUp() override {
    gus::Catalog().swap(catalog_);
    ::malloc_trim(0);
  }

  int64_t rotation() const override { return kSegmentShapes; }

  Status Query(int client, int64_t i, Tracer* tracer, int64_t parent,
               uint64_t request) override {
    const SegmentQuery q = SegmentQueryAt(env_.seed, i);
    gus::SboxReport report;
    {
      ScopedSpan span(tracer, "store.estimate_parallel", parent, request);
      GUS_ASSIGN_OR_RETURN(report, Run(q, segments_.get()));
    }
    if (i < kSegmentShapes) kept_.Put(client, i, report);
    return Status::OK();
  }

  int64_t Verify(std::vector<std::string>* errors) override {
    // Reference: the same query over the in-memory columnar catalog.
    if (catalog_.empty()) catalog_ = GenerateCatalog(env_, kLargeOrders);
    gus::ColumnarCatalog memory(&catalog_);
    int64_t checked = 0;
    for (const auto& [key, got] : kept_.Take()) {
      auto want = Run(SegmentQueryAt(env_.seed, key.second), &memory);
      ++checked;
      if (!want.ok() || !SameReportBits(got, want.ValueOrDie())) {
        errors->push_back("segments_oversize query " +
                          std::to_string(key.second) +
                          " differs from the in-memory catalog run");
      }
    }
    return checked;
  }

  Result<ProbeContext*> Probe() override {
    if (catalog_.empty()) catalog_ = GenerateCatalog(env_, kLargeOrders);
    gus::Workload q1 = gus::MakeQuery1(params_);
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(q1.plan));
    probe_.row_catalog = &catalog_;
    probe_.columnar = segments_.get();
    probe_.q1_params = params_;
    probe_.q1 = q1;
    probe_.q1_gus = soa.top;
    probe_.sbox = Section7();
    probe_.exec = exec_;
    probe_.segments = segments_.get();
    probe_.segment_rows = kSegmentRows;
    probe_.work_dir = env_.work_dir;
    probe_.seed = env_.seed;
    return &probe_;
  }

  std::map<std::string, double> Info() const override {
    const double lineitems = static_cast<double>(lineitems_);
    // Decoded lineitem: 7 eight-byte columns plus one lineage id per row.
    return {{"orders", static_cast<double>(orders_)},
            {"lineitems", lineitems},
            {"decoded_lineitem_bytes", lineitems * 8.0 * 8.0},
            {"segment_cache_budget_bytes", static_cast<double>(kCacheBytes)},
            {"segment_rows", kSegmentRows},
            {"threads", static_cast<double>(exec_.num_threads)}};
  }

 private:
  static constexpr int64_t kSegmentRows = 65536;
  static constexpr int64_t kCacheBytes = 32ll << 20;

  Result<gus::SboxReport> Run(const SegmentQuery& q,
                              gus::ColumnarCatalog* catalog) {
    const gus::PlanPtr plan =
        SegmentQueryPlan(q, "l", "l_orderkey", lineitems_, kLargeOrders);
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(plan));
    gus::Rng rng(q.seed);
    return gus::EstimatePlanParallel(plan, catalog, &rng,
                                     gus::Col("l_extendedprice"), soa.top,
                                     gus::SboxOptions{}, ExecMode::kSampled,
                                     exec_);
  }

  RunEnv env_;
  gus::Query1Params params_;
  gus::ExecOptions exec_;
  std::string dir_;
  gus::Catalog catalog_;  ///< empty during the measured phase
  int64_t orders_ = 0, lineitems_ = 0;
  std::unique_ptr<gus::SegmentCatalog> segments_;
  Kept<gus::SboxReport> kept_;
  ProbeContext probe_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            const RunEnv& env) {
  if (name == "q1_inmem") return std::make_unique<Q1InMem>(env);
  if (name == "served") return std::make_unique<Served>(env);
  if (name == "segments_oversize") {
    return std::make_unique<SegmentsOversize>(env);
  }
  return nullptr;
}

}  // namespace perfbench
