// Host fingerprint, process memory and JSON helpers.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace perfbench {

/// JSON string literal for `s` (quotes and control characters escaped).
std::string JsonQuote(const std::string& s);

/// A double as a JSON number with all its digits (%.17g; non-finite -> 0).
std::string JsonNumber(double v);

/// \brief The host a run measured on, as a JSON object: nproc, CPU model,
/// active SIMD tier, build type, git SHA and the workload seed.
std::string HostFingerprintJson(uint64_t seed, const std::string& build_type,
                                const std::string& git_sha);

/// Hardware threads (>= 1).
int HostThreads();

/// \brief Peak resident set size over a stretch of the run, in MiB.
///
/// A thread of its own samples the process's resident set
/// (/proc/self/statm) every 5 ms from construction until Stop(). Unlike
/// the lifetime peak, it leaves out what data generation and set-up held
/// and gave back.
class RssWatcher {
 public:
  RssWatcher();
  ~RssWatcher();
  RssWatcher(const RssWatcher&) = delete;
  RssWatcher& operator=(const RssWatcher&) = delete;

  /// Stops sampling; the peak seen, or 0 if the resident set was unreadable.
  double Stop();

 private:
  void Sample();

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;      // guarded by mu_
  double peak_mb_ = 0.0;   // guarded by mu_
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
