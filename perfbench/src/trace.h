// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a libgus public function in
// a span: name, start, end, parent span and request id. Spans stay in
// memory until the run ends and are then written out as JSON. Nothing in
// the library reads them; with tracing off, Begin/End are no-ops.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< since the tracer's origin
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index into the span list, -1 for a root
  uint64_t request = 0;  ///< spans of one request share this id
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id, or -1 when tracing is off.
  int64_t Begin(std::string name, int64_t parent, uint64_t request);
  void End(int64_t id);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  int64_t NowNs() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// \brief Self time of every span, in nanoseconds.
///
/// A span's self time is its duration minus the part of its interval that
/// its child spans cover. Overlapping children (parallel work) count once,
/// and children are clipped to the parent's interval.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief Per-request value of the spans named `name`, in milliseconds.
///
/// `ns[i]` is the value of span i (a duration or a self time). Several
/// spans of the same name in one request are summed, or reduced with max
/// when `use_max` is set. Requests without such a span are absent.
std::vector<double> PerRequestMs(const std::vector<Span>& spans,
                                 const std::vector<int64_t>& ns,
                                 const std::string& name,
                                 bool use_max = false);

/// Durations of every span, in nanoseconds (end - start).
std::vector<int64_t> DurationsNs(const std::vector<Span>& spans);

/// Spans as a JSON array.
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
