#include "trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "host.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> DurationsNs(const std::vector<Span>& spans) {
  std::vector<int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) out.push_back(s.end_ns - s.start_ns);
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.parent >= static_cast<int64_t>(spans.size())) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self;
  self.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self.push_back(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::vector<double> PerRequestMs(const std::vector<Span>& spans,
                                 const std::vector<int64_t>& ns,
                                 const std::string& name, bool use_max) {
  std::map<uint64_t, int64_t> per_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    auto [it, fresh] = per_request.emplace(spans[i].request, ns[i]);
    if (!fresh) {
      it->second = use_max ? std::max(it->second, ns[i]) : it->second + ns[i];
    }
  }
  std::vector<double> out;
  out.reserve(per_request.size());
  for (const auto& [request, v] : per_request) out.push_back(v / 1e6);
  return out;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":" + JsonQuote(s.name) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}";
  }
  return out + "]";
}

}  // namespace perfbench
