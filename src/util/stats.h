// Measurement helpers for the benchmark harness: wall-clock stopwatch and
// throughput formatting. The shared accumulator (RunningStats) lives in the
// observability library, src/obs/metrics.h.
#ifndef CDSTORE_SRC_UTIL_STATS_H_
#define CDSTORE_SRC_UTIL_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cdstore {

// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() { Reset(); }
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// "183.4 MB/s" given bytes and seconds.
std::string FormatThroughput(uint64_t bytes, double seconds);
// "1.23 GB" / "512.0 KB" etc.
std::string FormatSize(uint64_t bytes);
double ToMiBps(uint64_t bytes, double seconds);

}  // namespace cdstore

#endif  // CDSTORE_SRC_UTIL_STATS_H_
