// Observability overhead A/Bs: the same compute-bound streaming upload with
// the obs subsystem in different configurations, so any recording cost
// lands squarely in the wall clock.
//
//   metrics_overhead  metrics off vs fully wired (server dispatch
//                     histograms, client per-cloud RPC timers, queue
//                     gauges, dedup counters)
//   trace_overhead    tracer off vs attached-but-unsampled (the always-on
//                     production configuration: one sampling decision per
//                     request, every span site a nullptr/flag check) vs
//                     every request sampled (spans recorded into the
//                     per-thread rings, context on every wire frame)
//
// Each upload runs on a fresh (n,k)=(4,3) deployment of in-process servers
// over MemBackends with no simulated wire, in fixed 8 KiB chunks. Best of 3
// per arm, arms alternating, to cancel host drift. A failed upload exits 1,
// so a printed overhead line always prices a working upload.
//
// Emits one `BENCH_JSON {...}` line per A/B.
//
// Flags: --metrics_mb=16 --trace_mb=16 --threads=2
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/stats.h"

namespace cdstore {
namespace {

constexpr int kN = 4;
constexpr int kK = 3;

// One upload of `data` to a fresh deployment whose servers and client
// record into `metrics` and `tracer` (either may be null: that plane off).
double MeasureUploadMiBps(const Bytes& data, int threads, MetricRegistry* metrics,
                          Tracer* tracer) {
  TempDir dir;
  std::vector<std::unique_ptr<MemBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;
  std::vector<Transport*> ptrs;
  for (int i = 0; i < kN; ++i) {
    backends.push_back(std::make_unique<MemBackend>());
    ServerOptions so;
    so.index_dir = dir.Sub("server" + std::to_string(i));
    so.metrics = metrics;
    so.tracer = tracer;
    auto server = CdstoreServer::Create(backends.back().get(), so);
    if (!server.ok()) {
      std::fprintf(stderr, "server setup failed: %s\n", server.status().ToString().c_str());
      std::exit(1);
    }
    servers.push_back(std::move(server.value()));
    transports.push_back(std::make_unique<InProcTransport>(servers.back()->AsHandler()));
    ptrs.push_back(transports.back().get());
  }
  ClientOptions opts;
  opts.n = kN;
  opts.k = kK;
  opts.encode_threads = threads;
  opts.fixed_chunking = true;
  opts.fixed_chunk_size = 8192;
  opts.metrics = metrics;
  opts.tracer = tracer;
  CdstoreClient client(ptrs, /*user=*/1, opts);
  Stopwatch watch;
  Status st = client.Upload("/bench", data);
  double secs = watch.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "upload failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return ToMiBps(data.size(), secs);
}

double OverheadPct(double off, double on) {
  return off > 0 ? (off - on) / off * 100.0 : 0;
}

void BenchMetricsOverhead(size_t size_mb, int threads) {
  Bytes data = RandomData(size_mb * 1024 * 1024, 6060);
  PrintHeader("Metrics overhead: streaming upload, obs off vs fully instrumented");
  std::printf("%zuMB, fixed8k, %d encode threads, no simulated wire\n", size_mb, threads);
  double off = 0;
  double on = 0;
  for (int rep = 0; rep < 3; ++rep) {
    off = std::max(off, MeasureUploadMiBps(data, threads, nullptr, nullptr));
    MetricRegistry registry;
    on = std::max(on, MeasureUploadMiBps(data, threads, &registry, nullptr));
  }
  double overhead_pct = OverheadPct(off, on);
  std::printf("metrics off: %.1f MB/s   on: %.1f MB/s   overhead %.2f%%\n", off, on,
              overhead_pct);
  std::printf("BENCH_JSON {\"bench\":\"metrics_overhead\",\"size_mb\":%zu,"
              "\"off_mibps\":%.2f,\"on_mibps\":%.2f,\"overhead_pct\":%.2f}\n",
              size_mb, off, on, overhead_pct);
}

void BenchTraceOverhead(size_t size_mb, int threads) {
  Bytes data = RandomData(size_mb * 1024 * 1024, 7070);
  PrintHeader("Tracing overhead: streaming upload, off vs unsampled vs sampled");
  std::printf("%zuMB, fixed8k, %d encode threads, no simulated wire\n", size_mb, threads);
  double off = 0;
  double unsampled = 0;
  double sampled = 0;
  for (int rep = 0; rep < 3; ++rep) {
    off = std::max(off, MeasureUploadMiBps(data, threads, nullptr, nullptr));
    {
      // sample_every_n beyond the request count: the tracer is live on
      // every span site but no request wins the sampling lottery.
      TraceOptions topts;
      topts.sample_every_n = 1u << 30;
      topts.slow_threshold_ns = UINT64_MAX;
      Tracer tracer(topts);
      unsampled = std::max(unsampled, MeasureUploadMiBps(data, threads, nullptr, &tracer));
    }
    {
      Tracer tracer;  // defaults: every request sampled
      sampled = std::max(sampled, MeasureUploadMiBps(data, threads, nullptr, &tracer));
    }
  }
  double unsampled_pct = OverheadPct(off, unsampled);
  double sampled_pct = OverheadPct(off, sampled);
  std::printf("tracing off: %.1f MB/s   unsampled: %.1f MB/s (%.2f%%)   "
              "sampled: %.1f MB/s (%.2f%%)\n",
              off, unsampled, unsampled_pct, sampled, sampled_pct);
  std::printf("BENCH_JSON {\"bench\":\"trace_overhead\",\"size_mb\":%zu,"
              "\"off_mibps\":%.2f,\"unsampled_mibps\":%.2f,\"sampled_mibps\":%.2f,"
              "\"unsampled_overhead_pct\":%.2f,\"sampled_overhead_pct\":%.2f}\n",
              size_mb, off, unsampled, sampled, unsampled_pct, sampled_pct);
}

}  // namespace
}  // namespace cdstore

int main(int argc, char** argv) {
  using cdstore::FlagValue;
  const int threads = static_cast<int>(FlagValue(argc, argv, "threads", 2));
  const size_t metrics_mb = static_cast<size_t>(FlagValue(argc, argv, "metrics_mb", 16));
  const size_t trace_mb = static_cast<size_t>(FlagValue(argc, argv, "trace_mb", 16));
  cdstore::BenchMetricsOverhead(metrics_mb, threads);
  cdstore::BenchTraceOverhead(trace_mb, threads);
  return 0;
}
