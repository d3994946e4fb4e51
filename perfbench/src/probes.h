// Layer probes of the traced run, and the pieces the workloads share with
// them: the segment-query plan and the daemon fleet.
//
// A probe round calls each layer's public entry point once, on the
// workload's own data, inside spans of one request id: the four SQL
// statement shapes are parsed and planned, a fresh catalog converted,
// Query 1's WOR(orders) subtree, join build, pivot fragment and whole plan
// executed, its sample view estimated, its estimator state encoded and
// decoded, its shards executed and gathered in process and then served over
// sockets by two daemons, and a segment set is faulted, decoded and pruned.
// Every round repeats the same inputs, so the counts it records must agree
// bit for bit across rounds.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/gus_params.h"
#include "data/workload.h"
#include "est/sbox.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "schedule.h"
#include "serve/daemon.h"
#include "serve/session.h"
#include "trace.h"
#include "util/status.h"

namespace gus {
class SegmentCatalog;
}

namespace perfbench {

/// Everything the probes need from a workload.
struct ProbeContext {
  const gus::Catalog* row_catalog = nullptr;
  /// Resident catalog for in-process probes; already warmed for l and o.
  gus::ColumnarCatalog* columnar = nullptr;
  gus::Query1Params q1_params;
  gus::Workload q1;
  gus::GusParams q1_gus;
  gus::SboxOptions sbox;
  /// Morsel engine options: threads and pinned morsel_rows.
  gus::ExecOptions exec;
  /// The workload's own segment catalog over lineitem (segments_oversize),
  /// which the store probe faults, decodes and prunes; when null it does
  /// so on the orders segments it writes (on every workload) to time
  /// store.write_ms and store.open_ms.
  gus::SegmentCatalog* segments = nullptr;
  int64_t segment_rows = 65536;
  /// Directory for probe sockets and segment files.
  std::string work_dir;
  uint64_t seed = 0;
};

/// Per-layer results: metric name -> value. `exact` holds the counts that
/// must repeat bit for bit for a given seed.
struct LayerResults {
  std::map<std::string, double> values;
  std::map<std::string, double> exact;
  /// Mismatches found by the probes' own cross-checks (empty = none).
  std::vector<std::string> errors;
};

/// \brief Plan of a segments_oversize-shaped query: `key_column < cut`
/// over a WOR or Bernoulli sample of `relation` (`rows` rows), where the
/// cut keeps `q.selectivity` of keys 0 .. key_count-1.
gus::PlanPtr SegmentQueryPlan(const SegmentQuery& q,
                              const std::string& relation,
                              const std::string& key_column, int64_t rows,
                              int64_t key_count);

/// Daemons on Unix sockets and one coordinator over them; the destructor
/// shuts the coordinator down, stops the daemons and removes the sockets.
struct Fleet {
  std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons;
  std::unique_ptr<gus::SessionCoordinator> coordinator;
  std::vector<std::string> socket_paths;
  std::vector<double> start_ms;  ///< WorkerDaemon::Start, per daemon

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();

  /// Shard requests the daemons have answered so far.
  int64_t requests_served() const;
};

/// \brief Registers `queries` on each daemon, starts daemon k on the
/// socket `socket_prefix`-k.sock (each Start inside a span of `request`)
/// and connects a coordinator to them all.
gus::Status StartFleet(
    std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons,
    const std::vector<std::pair<std::string, gus::ServedQuery>>& queries,
    const std::string& socket_prefix, Tracer* tracer, uint64_t request,
    Fleet* fleet);

/// True when two reports carry the same estimate and CI bits.
bool SameReportBits(const gus::SboxReport& a, const gus::SboxReport& b);

/// Runs `rounds` probe rounds with request ids starting at
/// `first_request`; fills per-layer medians into `out`.
gus::Status RunLayerProbes(ProbeContext* ctx, Tracer* tracer,
                           uint64_t first_request, int rounds,
                           LayerResults* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
