#include "host.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "kernels/simd/simd_dispatch.h"

namespace perfbench {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string HostFingerprintJson(uint64_t seed, const std::string& build_type,
                                const std::string& git_sha) {
  return std::string("{\"nproc\":") + std::to_string(HostThreads()) +
         ",\"cpu\":" + JsonQuote(CpuModel()) + ",\"simd\":" +
         JsonQuote(gus::simd::SimdTierName(gus::simd::ActiveSimdTier())) +
         ",\"build_type\":" + JsonQuote(build_type) +
         ",\"git_sha\":" + JsonQuote(git_sha) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

RssWatcher::RssWatcher() {
  Sample();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return stop_; })) {
      lock.unlock();
      Sample();
      lock.lock();
    }
  });
}

RssWatcher::~RssWatcher() { Stop(); }

double RssWatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  Sample();
  std::lock_guard<std::mutex> lock(mu_);
  return peak_mb_;
}

void RssWatcher::Sample() {
  std::ifstream in("/proc/self/statm");
  int64_t size_pages = 0, resident_pages = 0;
  if (!(in >> size_pages >> resident_pages)) return;
  const double mb = static_cast<double>(resident_pages) *
                    static_cast<double>(::sysconf(_SC_PAGESIZE)) /
                    (1024.0 * 1024.0);
  std::lock_guard<std::mutex> lock(mu_);
  peak_mb_ = std::max(peak_mb_, mb);
}

}  // namespace perfbench
