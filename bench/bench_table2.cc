// Reproduces Table 2: measured upload/download speeds of each of the four
// simulated clouds, transferring data in 4MB units, mean (stddev) over 10
// runs. Per-run jitter is drawn from the paper's reported stddevs.
//
// Paper (MB/s): Amazon 5.87(.19)/4.45(.30)  Google 4.99(.23)/4.45(.21)
//               Azure 19.59(1.20)/13.78(.72) Rackspace 19.42(1.06)/12.93(1.47)
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cloud/profiles.h"
#include "src/cloud/sim_cloud.h"
#include "src/obs/metrics.h"
#include "src/util/stats.h"

namespace cdstore {
namespace {

void Run(int argc, char** argv) {
  const size_t total_bytes =
      static_cast<size_t>(FlagValue(argc, argv, "size_mb", 128)) * 1024 * 1024;
  const int runs = static_cast<int>(FlagValue(argc, argv, "runs", 10));
  const size_t unit = 4 << 20;  // 4MB units (§4.1)

  PrintHeader("Table 2: per-cloud speeds, MB/s, mean (stddev) over runs");
  std::printf("%-12s %-22s %-22s\n", "Cloud", "Upload", "Download");

  Rng jitter_rng(2014);
  for (const CloudProfile& base : Table2CloudProfiles()) {
    RunningStats up_stats, down_stats;
    for (int run = 0; run < runs; ++run) {
      // Sample this run's sustained rate ~ N(mean, stddev) via a coarse
      // normal approximation (sum of uniforms).
      auto sample = [&jitter_rng](double mean, double stddev) {
        double z = 0;
        for (int i = 0; i < 12; ++i) {
          z += jitter_rng.NextDouble();
        }
        return mean + (z - 6.0) * stddev;
      };
      CloudProfile p = base;
      p.upload_mbps = std::max(0.1, sample(base.upload_mbps, base.upload_stddev));
      p.download_mbps = std::max(0.1, sample(base.download_mbps, base.download_stddev));

      MemBackend inner;
      SimCloud cloud(&inner, p, /*virtual_time=*/true);
      size_t objects = (total_bytes + unit - 1) / unit;
      Bytes data(unit, static_cast<uint8_t>(run));
      for (size_t i = 0; i < objects; ++i) {
        (void)cloud.Put("o" + std::to_string(i), data);
      }
      up_stats.Add(ToMiBps(objects * unit, cloud.upload_seconds()));
      for (size_t i = 0; i < objects; ++i) {
        (void)cloud.Get("o" + std::to_string(i));
      }
      down_stats.Add(ToMiBps(objects * unit, cloud.download_seconds()));
    }
    std::printf("%-12s %6.2f (%.2f)%8s %6.2f (%.2f)\n", base.name.c_str(),
                up_stats.mean(), up_stats.stddev(), "", down_stats.mean(),
                down_stats.stddev());
  }
  std::printf("\nPaper: Amazon 5.87(0.19)/4.45(0.30), Google 4.99(0.23)/4.45(0.21),\n"
              "       Azure 19.59(1.20)/13.78(0.72), Rackspace 19.42(1.06)/12.93(1.47)\n");
}

}  // namespace
}  // namespace cdstore

int main(int argc, char** argv) {
  cdstore::Run(argc, argv);
  return 0;
}
