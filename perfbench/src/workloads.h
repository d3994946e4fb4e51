// The benchmark's workloads: q1_inmem, served, segments_oversize.
//
// Each workload generates its TPC-H-shaped inputs from the workload seed,
// sets itself up (from inputs in memory to the first answered query), runs
// queries for a closed-loop client, keeps what it answered, and afterwards
// recomputes references to check those answers bit for bit.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct RunEnv {
  uint64_t seed = 0;
  int threads = 1;        ///< nproc
  std::string work_dir;   ///< sockets and segment files
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Generates the inputs in memory (timed apart from set-up).
  virtual gus::Status Generate() = 0;
  /// One set-up, ending with the first answered query. Called several
  /// times; the last set-up stays live for the measured phase.
  virtual gus::Status SetUp() = 0;
  /// Called once after the last set-up, before the measured phase, to
  /// drop what only set-up and the references need.
  virtual void AfterSetUp() {}
  /// Closed-loop clients (each waits for its answer before sending again).
  virtual int clients() const { return 1; }
  /// Requests per client in one full rotation of the query mix; a client
  /// stops only at a rotation boundary so every shape weighs the same.
  virtual int64_t rotation() const { return 1; }
  /// Runs request `i` of `client`. Library calls are wrapped in spans under
  /// `parent` when tracing is on.
  virtual gus::Status Query(int client, int64_t i, Tracer* tracer,
                            int64_t parent, uint64_t request) = 0;
  /// Recomputes references for the answers kept so far (outside the timed
  /// region); appends a line per mismatch. Returns the number checked.
  virtual int64_t Verify(std::vector<std::string>* errors) = 0;
  /// Inputs for the layer probes (may convert a catalog; not timed).
  virtual gus::Result<ProbeContext*> Probe() = 0;
  /// Facts about the run for the info line: sizes, budgets, timings.
  virtual std::map<std::string, double> Info() const = 0;
};

/// The workload named `name`, or null if there is none.
std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            const RunEnv& env);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
