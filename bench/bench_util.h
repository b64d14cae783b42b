// Shared helpers for the table/figure reproduction binaries.
#ifndef CDSTORE_BENCH_BENCH_UTIL_H_
#define CDSTORE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace cdstore {

// Parses "--size_mb=64"-style flags from argv; returns fallback if absent.
inline double FlagValue(int argc, char** argv, const std::string& name, double fallback) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::atof(arg.c_str() + prefix.size());
    }
  }
  return fallback;
}

inline Bytes RandomData(size_t bytes, uint64_t seed = 42) {
  Rng rng(seed);
  return rng.RandomBytes(bytes);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Sums the dedup-accel counter families mirrored into `registry`
// (cdstore_dedup_* — see src/obs/README.md) across all servers feeding it
// and prints one BENCH_JSON hit-rate line tagged with `bench`. Shows
// whether the accel's blooms actually absorbed the workload's lookups;
// silent when no accel metric was ever recorded.
inline void PrintAccelHitRate(const MetricRegistry& registry, const char* bench) {
  uint64_t bloom_negative = 0, bloom_maybe = 0;
  bool seen = false;
  for (const MetricSample& s : registry.Snapshot()) {
    uint64_t v = static_cast<uint64_t>(s.value);
    if (s.name == "cdstore_dedup_bloom_negative_total") {
      bloom_negative += v;
      seen = true;
    } else if (s.name == "cdstore_dedup_bloom_maybe_total") {
      bloom_maybe += v;
      seen = true;
    }
  }
  if (!seen) {
    return;
  }
  uint64_t lookups = bloom_negative + bloom_maybe;
  // Lookups the accel answered without an LSM read: the bloom negatives.
  double absorbed = lookups == 0 ? 0.0 : static_cast<double>(bloom_negative) / lookups;
  std::printf("BENCH_JSON {\"bench\":\"%s_accel_hit_rate\",\"bloom_negative\":%llu,"
              "\"bloom_maybe\":%llu,\"absorbed\":%.4f}\n",
              bench, static_cast<unsigned long long>(bloom_negative),
              static_cast<unsigned long long>(bloom_maybe), absorbed);
}

}  // namespace cdstore

#endif  // CDSTORE_BENCH_BENCH_UTIL_H_
