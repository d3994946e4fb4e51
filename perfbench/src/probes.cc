#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>

#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "est/sample_view.h"
#include "est/streaming.h"
#include "kernels/join_hash_table.h"
#include "plan/exec_stats.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "schedule.h"
#include "serve/daemon.h"
#include "serve/session.h"
#include "serve/view_cache.h"
#include "sqlish/parser.h"
#include "sqlish/planner.h"
#include "stats.h"
#include "store/segment_cache.h"
#include "store/segment_catalog.h"
#include "store/segment_store.h"

namespace perfbench {

using gus::ColumnarCatalog;
using gus::ExecMode;
using gus::PlanNode;
using gus::PlanPtr;
using gus::Result;
using gus::Status;

namespace {

/// Drops what a pipeline emits: the pivot probe times the scan alone.
class DiscardSink final : public gus::MergeableBatchSink {
 public:
  Status Consume(const gus::ColumnBatch&) override { return Status::OK(); }
  Status MergeFrom(gus::BatchSink*) override { return Status::OK(); }
};

/// Collects the query's SampleView (the SBox input) in morsel order.
class ViewSink final : public gus::MergeableBatchSink {
 public:
  explicit ViewSink(gus::SampleViewBuilder builder)
      : builder_(std::move(builder)) {}
  Status Consume(const gus::ColumnBatch& batch) override {
    return builder_.Consume(batch);
  }
  Status MergeFrom(gus::BatchSink* other) override {
    return builder_.Merge(std::move(static_cast<ViewSink*>(other)->builder_));
  }
  gus::SampleView TakeView() { return builder_.TakeView(); }

 private:
  gus::SampleViewBuilder builder_;
};

/// Folds the query into one mergeable estimator state (what crosses the
/// wire and what the view cache stores).
class EstimatorSink final : public gus::MergeableBatchSink {
 public:
  explicit EstimatorSink(gus::StreamingSboxEstimator est)
      : est_(std::move(est)) {}
  Status Consume(const gus::ColumnBatch& batch) override {
    return est_.Consume(batch);
  }
  Status MergeFrom(gus::BatchSink* other) override {
    return est_.Merge(std::move(static_cast<EstimatorSink*>(other)->est_));
  }
  gus::StreamingSboxEstimator* estimator() { return &est_; }

 private:
  gus::StreamingSboxEstimator est_;
};

/// Lets a daemon serve from a catalog the benchmark already holds warm.
class ForwardingCatalog final : public ColumnarCatalog {
 public:
  explicit ForwardingCatalog(ColumnarCatalog* target) : target_(target) {}
  Result<const gus::ColumnarRelation*> Get(const std::string& n) override {
    return target_->Get(n);
  }
  Result<uint64_t> Fingerprint(const std::string& n) override {
    return target_->Fingerprint(n);
  }
  Result<const gus::StoredRelation*> Stored(const std::string& n) override {
    return target_->Stored(n);
  }
  Result<int64_t> RowCountOf(const std::string& n) override {
    return target_->RowCountOf(n);
  }
  Result<gus::LayoutPtr> LayoutOf(const std::string& n) override {
    return target_->LayoutOf(n);
  }
  gus::SegmentCache* segment_cache() override {
    return target_->segment_cache();
  }

 private:
  ColumnarCatalog* target_;
};

/// Segment set the store probe runs against.
struct StoreTarget {
  gus::SegmentCatalog* catalog = nullptr;
  std::string relation;
  std::string key_column;
  std::string f_column;
  int64_t key_count = 0;  ///< keys are 0 .. key_count-1
};

/// Per-round raw results.
struct Round {
  std::map<std::string, double> values;
  std::map<std::string, double> exact;
};

Status StoreRound(ProbeContext* ctx, const StoreTarget& target,
                  Tracer* tracer, int64_t root, uint64_t request,
                  Round* round, std::vector<double>* decode_ms) {
  gus::SegmentCache* cache = target.catalog->segment_cache();
  cache->Clear();
  const gus::SegmentCacheCounters before = cache->counters();
  int64_t skipped = 0, total = 0;
  const uint64_t shapes_seed = DeriveSeed(ctx->seed, Stream::kProbe, 1);
  GUS_ASSIGN_OR_RETURN(int64_t rows, target.catalog->RowCountOf(target.relation));
  for (int s = 0; s < kSegmentShapes; ++s) {
    const SegmentQuery q = SegmentQueryAt(shapes_seed, s);
    const PlanPtr plan = SegmentQueryPlan(q, target.relation,
                                          target.key_column, rows,
                                          target.key_count);
    GUS_ASSIGN_OR_RETURN(gus::SoaResult soa, gus::SoaTransform(plan));
    gus::ExecStats stats;
    gus::ExecOptions exec = ctx->exec;
    exec.num_threads = 1;  // one faulting thread: counters repeat exactly
    exec.morsel_rows = ctx->segment_rows;
    exec.stats = &stats;
    gus::Rng rng(q.seed);
    {
      ScopedSpan span(tracer, "store.query", root, request);
      GUS_ASSIGN_OR_RETURN(
          gus::SboxReport report,
          gus::EstimatePlanParallel(plan, target.catalog, &rng,
                                    gus::Col(target.f_column), soa.top,
                                    gus::SboxOptions{}, ExecMode::kSampled,
                                    exec));
      (void)report;
    }
    skipped += stats.segments_skipped;
    total += stats.segments_total;
  }
  const gus::SegmentCacheCounters after = cache->counters();
  round->exact["store.faults"] = static_cast<double>(after.faults - before.faults);
  round->exact["store.hits"] = static_cast<double>(after.hits - before.hits);
  round->exact["store.evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  round->exact["store.bytes_read"] =
      static_cast<double>(after.bytes_read - before.bytes_read);
  round->exact["store.skip_frac"] =
      total > 0 ? static_cast<double>(skipped) / static_cast<double>(total)
                : 0.0;

  GUS_ASSIGN_OR_RETURN(const gus::StoredRelation* stored,
                       target.catalog->Stored(target.relation));
  if (stored == nullptr) return Status::Internal("store probe: not stored");
  const int64_t n = std::min<int64_t>(8, stored->num_segments());
  for (int64_t s = 0; s < n; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    ScopedSpan span(tracer, "store.decode", root, request);
    GUS_ASSIGN_OR_RETURN(gus::ColumnBatch batch, stored->DecodeSegment(s));
    decode_ms->push_back(MsSince(t0));
    if (batch.num_rows() == 0) return Status::Internal("empty segment");
  }
  return Status::OK();
}

Status ProbeRound(ProbeContext* ctx, Fleet* fleet,
                  const StoreTarget& store, Tracer* tracer, uint64_t request,
                  Round* round, std::vector<std::string>* errors) {
  ScopedSpan root_span(tracer, "probe", -1, request);
  const int64_t root = root_span.id();
  const uint64_t seed = DeriveSeed(ctx->seed, Stream::kProbe, 0);
  const auto timed = [&](const char* name, auto&& body) -> Status {
    ScopedSpan span(tracer, name, root, request);
    return body();
  };

  // plan: the whole query on the morsel engine, with its ExecStats. First
  // in the round, so the catalog conversion below does not disturb it.
  gus::ExecStats stats;
  gus::SboxReport whole;
  GUS_RETURN_NOT_OK(timed("plan.estimate", [&]() -> Status {
    gus::ExecOptions exec = ctx->exec;
    exec.stats = &stats;
    gus::Rng rng(seed);
    GUS_ASSIGN_OR_RETURN(
        whole, gus::EstimatePlanParallel(ctx->q1.plan, ctx->columnar, &rng,
                                         ctx->q1.aggregate, ctx->q1_gus,
                                         ctx->sbox, ExecMode::kSampled, exec));
    return Status::OK();
  }));
  round->values["plan.prepare_ms"] = stats.prepare_ms;
  round->values["plan.parallel_ms"] = stats.parallel_ms;
  round->values["plan.sink_fold_ms"] = stats.sink_fold_ms;
  round->exact["plan.morsels"] = static_cast<double>(stats.morsels);
  round->exact["plan.rows_emitted"] = static_cast<double>(stats.rows_emitted);
  round->values["util.pool_threads_spawned"] =
      static_cast<double>(stats.pool_threads_spawned);
  round->values["util.pool_wakeups"] = static_cast<double>(stats.pool_wakeups);

  // sqlish: parse + plan the four statement shapes.
  std::vector<std::string> statements;
  for (int k = 0; k < kSqlShapes; ++k) {
    statements.push_back(
        SqlStatement(ctx->seed, k, ctx->q1_params.orders_population));
  }
  GUS_RETURN_NOT_OK(timed("sqlish.parse_plan", [&]() -> Status {
    for (const std::string& sql : statements) {
      GUS_ASSIGN_OR_RETURN(gus::sqlish::ParsedQuery parsed,
                           gus::sqlish::ParseQuery(sql));
      GUS_ASSIGN_OR_RETURN(gus::sqlish::PlannedQuery planned,
                           gus::sqlish::PlanQuery(parsed, *ctx->row_catalog));
      (void)planned;
    }
    return Status::OK();
  }));

  // sqlish: the columnar conversion every RunApproxQuery call pays.
  GUS_RETURN_NOT_OK(timed("sqlish.catalog_convert", [&]() -> Status {
    ColumnarCatalog fresh(ctx->row_catalog);
    for (const char* rel : {"l", "o"}) {
      GUS_ASSIGN_OR_RETURN(const gus::ColumnarRelation* r, fresh.Get(rel));
      (void)r;
    }
    return Status::OK();
  }));

  // sampling: Query 1's WOR(orders) subtree alone.
  gus::ColumnarRelation sampled_orders;
  GUS_RETURN_NOT_OK(timed("sampling.wor_subtree", [&]() -> Status {
    PlanPtr wor = PlanNode::Sample(
        gus::SamplingSpec::WithoutReplacement(ctx->q1_params.orders_n,
                                              ctx->q1_params.orders_population),
        PlanNode::Scan("o"));
    gus::Rng rng(seed);
    GUS_ASSIGN_OR_RETURN(sampled_orders,
                         gus::ExecutePlanColumnar(wor, ctx->columnar, &rng));
    return Status::OK();
  }));
  round->exact["sampling.keep_rows"] =
      static_cast<double>(sampled_orders.num_rows());

  // kernels: the join build over the sampled orders keys.
  GUS_RETURN_NOT_OK(timed("kernels.join_build", [&]() -> Status {
    GUS_ASSIGN_OR_RETURN(int key, sampled_orders.schema().IndexOf("o_orderkey"));
    gus::JoinHashTable table;
    return table.BuildFrom(sampled_orders.data().column(key),
                           sampled_orders.num_rows(), ctx->exec.num_threads);
  }));

  // kernels: the sigma(B(lineitem)) pivot fragment alone.
  GUS_RETURN_NOT_OK(timed("kernels.pivot_scan", [&]() -> Status {
    PlanPtr pivot = PlanNode::SelectNode(
        gus::Gt(gus::Col("l_extendedprice"),
                gus::Lit(ctx->q1_params.price_threshold)),
        PlanNode::Sample(gus::SamplingSpec::Bernoulli(ctx->q1_params.lineitem_p),
                         PlanNode::Scan("l")));
    gus::Rng rng(seed);
    std::unique_ptr<gus::MergeableBatchSink> sink;
    return gus::ParallelExecutePlanToSink(
        pivot, ctx->columnar, &rng, ExecMode::kSampled, ctx->exec,
        [](const gus::BatchLayout&)
            -> Result<std::unique_ptr<gus::MergeableBatchSink>> {
          return std::unique_ptr<gus::MergeableBatchSink>(new DiscardSink());
        },
        &sink);
  }));

  // est: the SBox finish over the query's sample view.
  gus::SampleView view;
  GUS_RETURN_NOT_OK(timed("est.view_build", [&]() -> Status {
    gus::Rng rng(seed);
    std::unique_ptr<gus::MergeableBatchSink> sink;
    GUS_RETURN_NOT_OK(gus::ParallelExecutePlanToSink(
        ctx->q1.plan, ctx->columnar, &rng, ExecMode::kSampled, ctx->exec,
        [&](const gus::BatchLayout& layout)
            -> Result<std::unique_ptr<gus::MergeableBatchSink>> {
          GUS_ASSIGN_OR_RETURN(
              gus::SampleViewBuilder b,
              gus::SampleViewBuilder::Make(layout, ctx->q1.aggregate,
                                           ctx->q1_gus.schema()));
          return std::unique_ptr<gus::MergeableBatchSink>(
              new ViewSink(std::move(b)));
        },
        &sink));
    view = static_cast<ViewSink*>(sink.get())->TakeView();
    return Status::OK();
  }));
  gus::SboxReport from_view;
  GUS_RETURN_NOT_OK(timed("est.sbox_finish", [&]() -> Status {
    GUS_ASSIGN_OR_RETURN(from_view,
                         gus::SboxEstimate(ctx->q1_gus, view, ctx->sbox));
    return Status::OK();
  }));
  // The engine folds per-morsel partial sums; the view sums row by row,
  // so the two may differ in the last bits, never by more.
  if (std::abs(from_view.estimate - whole.estimate) >
      1e-9 * std::abs(whole.estimate)) {
    errors->push_back("est.sbox_finish estimate " +
                      std::to_string(from_view.estimate) +
                      " differs from the engine's " +
                      std::to_string(whole.estimate));
  }

  // est: encode / decode of the merged estimator state.
  std::unique_ptr<gus::MergeableBatchSink> est_sink;
  {
    gus::Rng rng(seed);
    GUS_RETURN_NOT_OK(gus::ParallelExecutePlanToSink(
        ctx->q1.plan, ctx->columnar, &rng, ExecMode::kSampled, ctx->exec,
        [&](const gus::BatchLayout& layout)
            -> Result<std::unique_ptr<gus::MergeableBatchSink>> {
          GUS_ASSIGN_OR_RETURN(
              gus::StreamingSboxEstimator e,
              gus::StreamingSboxEstimator::Make(layout, ctx->q1.aggregate,
                                                ctx->q1_gus, ctx->sbox));
          return std::unique_ptr<gus::MergeableBatchSink>(
              new EstimatorSink(std::move(e)));
        },
        &est_sink));
  }
  std::string state;
  GUS_RETURN_NOT_OK(timed("est.wire_encode", [&]() -> Status {
    state = static_cast<EstimatorSink*>(est_sink.get())
                ->estimator()
                ->SerializeState();
    return Status::OK();
  }));
  round->exact["est.wire_bytes"] = static_cast<double>(state.size());
  gus::SboxReport decoded_report;
  GUS_RETURN_NOT_OK(timed("est.wire_decode", [&]() -> Status {
    GUS_ASSIGN_OR_RETURN(gus::StreamingSboxEstimator decoded,
                         gus::StreamingSboxEstimator::DeserializeState(state));
    GUS_ASSIGN_OR_RETURN(decoded_report, decoded.Finish());
    return Status::OK();
  }));
  if (!SameReportBits(decoded_report, whole)) {
    errors->push_back("decoded estimator state differs from the engine's");
  }

  // dist: two shards in process, then the gather.
  gus::ExecOptions shard_exec = ctx->exec;
  shard_exec.num_threads = 1;
  gus::LocalTransport transport;
  for (int k = 0; k < 2; ++k) {
    std::string bundle;
    GUS_RETURN_NOT_OK(timed("dist.shard_exec", [&]() -> Status {
      GUS_ASSIGN_OR_RETURN(
          bundle, gus::RunShardSbox(ctx->q1.plan, ctx->columnar, seed,
                                    ExecMode::kSampled, shard_exec, k, 2,
                                    ctx->q1.aggregate, ctx->q1_gus, ctx->sbox));
      return Status::OK();
    }));
    GUS_RETURN_NOT_OK(transport.Send(k, std::move(bundle)));
  }
  gus::SboxReport gathered;
  GUS_RETURN_NOT_OK(timed("dist.gather", [&]() -> Status {
    GUS_ASSIGN_OR_RETURN(gathered, gus::GatherSboxEstimate(&transport, 2));
    return Status::OK();
  }));

  // serve: the same request over sockets — a miss, then a hit.
  gus::ViewCache cache;
  const int64_t served_before = fleet->requests_served();
  gus::ServedRequest req;
  req.seed = seed;
  req.num_shards = 2;
  req.morsel_rows = ctx->exec.morsel_rows;
  req.num_threads = 1;
  req.use_cache = true;
  req.cache = &cache;
  gus::ExecStats serve_stats;
  req.stats = &serve_stats;
  gus::ServedResult miss, hit;
  GUS_RETURN_NOT_OK(timed("serve.miss", [&]() -> Status {
    GUS_ASSIGN_OR_RETURN(miss, fleet->coordinator->Execute("q1", req));
    return Status::OK();
  }));
  const int64_t retries = serve_stats.shard_retries;
  GUS_RETURN_NOT_OK(timed("serve.cache_hit", [&]() -> Status {
    GUS_ASSIGN_OR_RETURN(hit, fleet->coordinator->Execute("q1", req));
    return Status::OK();
  }));
  const int64_t served_after = fleet->requests_served();
  if (miss.cache_hit || !hit.cache_hit) {
    errors->push_back("serve probe: expected a miss then a hit");
  }
  if (!SameReportBits(miss.report, gathered) || !SameReportBits(hit.report, gathered)) {
    errors->push_back("served answer differs from the in-process gather");
  }
  round->exact["serve.requests_served"] =
      static_cast<double>(served_after - served_before);
  round->exact["serve.cache_hit_frac"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(std::max<int64_t>(1, cache.hits() + cache.misses()));
  round->values["serve.shard_retries"] =
      static_cast<double>(retries + serve_stats.shard_retries);

  // store: fault / decode / evict / prune over a segment set.
  std::vector<double> decode_ms;
  GUS_RETURN_NOT_OK(
      StoreRound(ctx, store, tracer, root, request, round, &decode_ms));
  round->values["store.decode_ms"] = Median(decode_ms);
  return Status::OK();
}

}  // namespace

PlanPtr SegmentQueryPlan(const SegmentQuery& q, const std::string& relation,
                         const std::string& key_column, int64_t rows,
                         int64_t key_count) {
  const gus::SamplingSpec spec =
      q.wor ? gus::SamplingSpec::WithoutReplacement(
                  std::max<int64_t>(1, static_cast<int64_t>(
                                           q.wor_fraction *
                                           static_cast<double>(rows))),
                  rows)
            : gus::SamplingSpec::Bernoulli(q.bernoulli_p);
  const int64_t cut =
      static_cast<int64_t>(q.selectivity * static_cast<double>(key_count));
  return PlanNode::SelectNode(
      gus::Lt(gus::Col(key_column), gus::Lit(cut)),
      PlanNode::Sample(spec, PlanNode::Scan(relation)));
}

Fleet::~Fleet() {
  if (coordinator != nullptr) coordinator->Shutdown();
  for (auto& d : daemons) d->Stop();
  for (const std::string& p : socket_paths) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
}

int64_t Fleet::requests_served() const {
  int64_t served = 0;
  for (const auto& d : daemons) served += d->requests_served();
  return served;
}

Status StartFleet(
    std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons,
    const std::vector<std::pair<std::string, gus::ServedQuery>>& queries,
    const std::string& socket_prefix, Tracer* tracer, uint64_t request,
    Fleet* fleet) {
  std::vector<gus::Endpoint> endpoints;
  for (size_t k = 0; k < daemons.size(); ++k) {
    for (const auto& [name, query] : queries) {
      GUS_RETURN_NOT_OK(daemons[k]->RegisterQuery(name, query));
    }
    const std::string path = socket_prefix + "-" + std::to_string(k) + ".sock";
    std::error_code ec;
    std::filesystem::remove(path, ec);
    GUS_ASSIGN_OR_RETURN(gus::Endpoint listen,
                         gus::Endpoint::Parse("unix:" + path));
    const auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan span(tracer, "serve.daemon_start", -1, request);
      GUS_ASSIGN_OR_RETURN(gus::Endpoint ep, daemons[k]->Start(listen));
      endpoints.push_back(ep);
    }
    fleet->start_ms.push_back(MsSince(t0));
    fleet->socket_paths.push_back(path);
    fleet->daemons.push_back(std::move(daemons[k]));
  }
  fleet->coordinator = std::make_unique<gus::SessionCoordinator>(endpoints);
  return Status::OK();
}

bool SameReportBits(const gus::SboxReport& a, const gus::SboxReport& b) {
  return a.estimate == b.estimate && a.stddev == b.stddev &&
         a.interval.lo == b.interval.lo && a.interval.hi == b.interval.hi &&
         a.sample_rows == b.sample_rows &&
         a.variance_rows == b.variance_rows;
}

Status RunLayerProbes(ProbeContext* ctx, Tracer* tracer,
                      uint64_t first_request, int rounds, LayerResults* out) {
  // The orders relation written out and opened as segments, on every
  // workload; the store rounds run on the workload's own segment set when
  // it has one, else on these.
  std::unique_ptr<gus::SegmentCatalog> own_segments;
  std::vector<double> write_ms, open_ms;
  const std::string seg_dir = ctx->work_dir + "/probe-segments-" +
                              std::to_string(::getpid());
  gus::Catalog orders_only;
  orders_only["o"] = ctx->row_catalog->at("o");
  for (int r = 0; r < rounds; ++r) {
    std::error_code ec;
    std::filesystem::remove_all(seg_dir, ec);
    own_segments.reset();
    auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan span(tracer, "store.write", -1, first_request);
      GUS_RETURN_NOT_OK(
          gus::WriteCatalogSegments(orders_only, seg_dir, ctx->segment_rows));
    }
    write_ms.push_back(MsSince(t0));
    // Budget: a quarter of the decoded orders columns, so the probe
    // evicts as the oversize workload does.
    gus::SegmentCacheOptions cache_options;
    cache_options.max_bytes = std::max<int64_t>(
        1, ctx->row_catalog->at("o").num_rows() * 32 / 4);
    t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan span(tracer, "store.open", -1, first_request);
      GUS_ASSIGN_OR_RETURN(own_segments,
                           gus::SegmentCatalog::Open(seg_dir, cache_options));
    }
    open_ms.push_back(MsSince(t0));
  }
  const StoreTarget store =
      ctx->segments != nullptr
          ? StoreTarget{ctx->segments, "l", "l_orderkey", "l_extendedprice",
                        ctx->q1_params.orders_population}
          : StoreTarget{own_segments.get(), "o", "o_orderkey", "o_totalprice",
                        ctx->q1_params.orders_population};

  // Two daemons serving Query 1 from the probe catalog.
  gus::ServedQuery q1;
  q1.plan = ctx->q1.plan;
  q1.f_expr = ctx->q1.aggregate;
  q1.gus = ctx->q1_gus;
  q1.sbox = ctx->sbox;
  std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons;
  for (int k = 0; k < 2; ++k) {
    daemons.push_back(std::make_unique<gus::WorkerDaemon>(
        std::make_unique<ForwardingCatalog>(ctx->columnar)));
  }
  Fleet fleet;
  GUS_RETURN_NOT_OK(StartFleet(
      std::move(daemons), {{"q1", q1}},
      ctx->work_dir + "/probe-" + std::to_string(::getpid()), tracer,
      first_request, &fleet));

  std::vector<Round> done(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    GUS_RETURN_NOT_OK(ProbeRound(ctx, &fleet, store, tracer,
                                 first_request + static_cast<uint64_t>(r),
                                 &done[static_cast<size_t>(r)], &out->errors));
  }
  own_segments.reset();
  std::error_code ec;
  std::filesystem::remove_all(seg_dir, ec);

  // Span-derived times: median over rounds of each request's self time.
  const std::vector<Span> spans = tracer->spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const auto span_ms = [&](const std::string& name, bool use_max = false) {
    return Median(PerRequestMs(spans, self, name, use_max));
  };
  for (const char* name :
       {"sqlish.parse_plan", "sqlish.catalog_convert", "sampling.wor_subtree",
        "kernels.join_build", "kernels.pivot_scan", "est.sbox_finish",
        "est.wire_encode", "est.wire_decode", "dist.gather",
        "serve.cache_hit"}) {
    out->values[std::string(name) + "_ms"] = span_ms(name);
  }
  out->values["dist.shard_exec_ms"] = span_ms("dist.shard_exec", true);

  // A served miss minus its in-process work for the same request.
  const std::vector<double> miss =
      PerRequestMs(spans, DurationsNs(spans), "serve.miss");
  const std::vector<double> shard =
      PerRequestMs(spans, self, "dist.shard_exec", true);
  const std::vector<double> gather = PerRequestMs(spans, self, "dist.gather");
  std::vector<double> overhead;
  for (size_t r = 0; r < miss.size() && r < shard.size() && r < gather.size();
       ++r) {
    overhead.push_back(miss[r] - shard[r] - gather[r]);
  }
  out->values["serve.socket_overhead_ms"] = Median(overhead);
  out->values["serve.daemon_start_ms"] = Median(fleet.start_ms);
  out->values["store.write_ms"] = Median(write_ms);
  out->values["store.open_ms"] = Median(open_ms);

  // Round values: medians; exact counts: must agree across rounds.
  std::map<std::string, std::vector<double>> by_name;
  for (const Round& round : done) {
    for (const auto& [k, v] : round.values) by_name[k].push_back(v);
  }
  for (auto& [k, vs] : by_name) out->values[k] = Median(vs);
  for (const auto& [k, v] : done.front().exact) {
    out->values[k] = v;
    out->exact[k] = v;
    for (const Round& round : done) {
      if (round.exact.at(k) != v) {
        out->errors.push_back("exact count " + k + " moved between rounds");
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
