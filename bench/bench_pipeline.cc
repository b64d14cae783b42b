// End-to-end pipeline benchmarks against n simulated clouds whose links
// have real latency and finite bandwidth (the transport sleeps, so overlap
// between compute and transfer is actually observable in wall-clock time):
//
//   1. N one-shot uploads vs one multi-file BackupSession (per-file
//      pipeline setup/teardown amortization),
//   2. pipelined sink-driven download (per-cloud fetch lanes overlapped
//      with decode workers) with its per-cloud skew breakdown,
//   3. multi-client upload scaling, and the metrics and tracing overhead
//      of the streaming upload,
//   4. microbenchmarks of the SIMD kernel tiers the pipeline leans on
//      (GF(256) region multiply, SHA-256 compression).
//
// Emits one `BENCH_JSON {...}` line per measurement for trajectory
// tracking, plus human-readable tables.
//
// Flags: --size_mb=48 --uplink_mbps=24 --latency_ms=2 --threads=2
//        --files=16 --file_kb=512 --stream_batch_kb=1024 --queue_depth=64
//        --shared_uplink=0
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/core/server.h"
#include "src/crypto/sha256.h"
#include "src/gf256/gf256.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/backend.h"
#include "src/util/rate_limiter.h"
#include "src/util/fs_util.h"
#include "src/util/stats.h"

namespace cdstore {
namespace {

constexpr int kN = 4;
constexpr int kK = 3;

// The client's shared uplink: one serial transmission queue across all n
// cloud connections, as in the paper's testbed where the client NIC /
// campus uplink gates total egress (§5.1). Unlike a token bucket with
// per-caller deficit sleeps, concurrent senders genuinely queue behind one
// another, so total throughput never exceeds the link rate.
class SharedUplink {
 public:
  explicit SharedUplink(double bytes_per_s) : rate_(bytes_per_s) {}

  void Send(size_t bytes) {
    if (rate_ <= 0) {
      return;
    }
    std::chrono::steady_clock::time_point wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto now = std::chrono::steady_clock::now();
      if (next_free_ < now) {
        next_free_ = now;
      }
      next_free_ += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(static_cast<double>(bytes) / rate_));
      wake = next_free_;
    }
    std::this_thread::sleep_until(wake);
  }

 private:
  double rate_;
  std::mutex mu_;
  std::chrono::steady_clock::time_point next_free_{};
};

// A transport that charges every request real wall-clock time: a fixed
// per-call latency plus serialization over either this cloud's own WAN
// path (the paper's Table 2 multi-cloud setting: per-cloud bandwidth is
// the bottleneck, the client NIC is not) or a shared client uplink (its
// LAN testbed, where the NIC gates total egress).
class DelayTransport : public Transport {
 public:
  DelayTransport(RpcHandler handler, double latency_s, double own_bytes_per_s,
                 SharedUplink* shared_uplink)
      : handler_(std::move(handler)),
        latency_s_(latency_s),
        own_bytes_per_s_(own_bytes_per_s),
        uplink_(shared_uplink) {}

  Result<Bytes> Call(ConstByteSpan request) override {
    double secs = latency_s_;
    if (uplink_ == nullptr && own_bytes_per_s_ > 0) {
      secs += static_cast<double>(request.size()) / own_bytes_per_s_;
    }
    if (secs > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    }
    if (uplink_ != nullptr) {
      uplink_->Send(request.size());
    }
    Bytes reply = handler_(request);
    // Reply bytes ride the same per-cloud WAN path, so downloads (whose
    // bulk is in the reply) cost real wall time too. The shared-uplink
    // mode models only the egress NIC and leaves replies uncharged.
    if (uplink_ == nullptr && own_bytes_per_s_ > 0 && !reply.empty()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          static_cast<double>(reply.size()) / own_bytes_per_s_));
    }
    return reply;
  }

 private:
  RpcHandler handler_;
  double latency_s_;
  double own_bytes_per_s_;
  SharedUplink* uplink_;
};

struct Deployment {
  TempDir dir;
  std::unique_ptr<SharedUplink> uplink;
  std::vector<std::unique_ptr<MemBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<DelayTransport>> transports;
  // Extra per-client transport sets for the multi-client scenario: client c
  // talks to the SAME servers over its own WAN paths (transports[c*kN + i]).
  std::vector<std::unique_ptr<DelayTransport>> client_transports;
};

// When set, deployments and clients record into this registry — flipped by
// the metrics-overhead bench to price the obs subsystem on the hot path.
MetricRegistry* g_metrics = nullptr;
// Same switch for the span tracer (trace-overhead bench): servers and
// clients share one tracer, exactly as the CLI's --trace wiring does.
Tracer* g_tracer = nullptr;

std::unique_ptr<Deployment> MakeDeployment(double latency_s, double uplink_bytes_per_s,
                                           bool shared_uplink) {
  auto d = std::make_unique<Deployment>();
  if (shared_uplink) {
    d->uplink = std::make_unique<SharedUplink>(uplink_bytes_per_s);
  }
  for (int i = 0; i < kN; ++i) {
    d->backends.push_back(std::make_unique<MemBackend>());
    ServerOptions so;
    so.index_dir = d->dir.Sub("server" + std::to_string(i));
    so.metrics = g_metrics;
    so.tracer = g_tracer;
    auto server = CdstoreServer::Create(d->backends.back().get(), so);
    if (!server.ok()) {
      std::fprintf(stderr, "server setup failed: %s\n", server.status().ToString().c_str());
      std::exit(1);
    }
    d->servers.push_back(std::move(server.value()));
    d->transports.push_back(std::make_unique<DelayTransport>(
        d->servers.back()->AsHandler(), latency_s, uplink_bytes_per_s, d->uplink.get()));
  }
  return d;
}

size_t g_stream_batch_bytes = 1 << 20;
size_t g_queue_depth = 64;
bool g_shared_uplink = false;

// One compute-bound streaming upload (fixed 8KB chunks, no simulated
// wire) with the bench's current metrics registry and tracer.
double MeasureUploadMiBps(const Bytes& data, int threads) {
  auto world = MakeDeployment(0.0, 0.0, g_shared_uplink);
  std::vector<Transport*> transports;
  for (auto& t : world->transports) {
    transports.push_back(t.get());
  }
  ClientOptions opts;
  opts.n = kN;
  opts.k = kK;
  opts.encode_threads = threads;
  opts.fixed_chunking = true;
  opts.fixed_chunk_size = 8192;
  opts.stream_batch_bytes = g_stream_batch_bytes;
  opts.pipeline_queue_depth = g_queue_depth;
  opts.metrics = g_metrics;
  opts.tracer = g_tracer;
  CdstoreClient client(transports, /*user=*/1, opts);
  Stopwatch watch;
  Status st = client.Upload("/bench", data);
  double secs = watch.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "upload failed: %s\n", st.ToString().c_str());
    return 0;
  }
  return ToMiBps(data.size(), secs);
}

ClientOptions BenchClientOptions(int threads) {
  ClientOptions opts;
  opts.n = kN;
  opts.k = kK;
  opts.encode_threads = threads;
  opts.decode_threads = threads;
  opts.stream_batch_bytes = g_stream_batch_bytes;
  opts.pipeline_queue_depth = g_queue_depth;
  return opts;
}

// N one-shot uploads (each pays pipeline thread setup/teardown) vs one
// BackupSession streaming the same N files through persistent encode
// workers and per-cloud uploader threads.
void BenchSession(int argc, char** argv) {
  const int files = static_cast<int>(FlagValue(argc, argv, "files", 16));
  const size_t file_kb = static_cast<size_t>(FlagValue(argc, argv, "file_kb", 512));
  const double uplink_mbps = FlagValue(argc, argv, "uplink_mbps", 24);
  const double latency_ms = FlagValue(argc, argv, "latency_ms", 2);
  const int threads = static_cast<int>(FlagValue(argc, argv, "threads", 2));
  const double latency_s = latency_ms / 1e3;
  const double uplink_bytes_per_s = uplink_mbps * 1e6;

  std::vector<Bytes> dataset;
  dataset.reserve(files);
  for (int f = 0; f < files; ++f) {
    dataset.push_back(RandomData(file_kb * 1024, 9000 + f));
  }

  auto run = [&](bool use_session) {
    auto world = MakeDeployment(latency_s, uplink_bytes_per_s, g_shared_uplink);
    std::vector<Transport*> transports;
    for (auto& t : world->transports) {
      transports.push_back(t.get());
    }
    CdstoreClient client(transports, /*user=*/1, BenchClientOptions(threads));
    Stopwatch watch;
    if (use_session) {
      auto session = client.OpenBackupSession();
      if (!session.ok()) {
        std::fprintf(stderr, "session failed: %s\n", session.status().ToString().c_str());
        std::exit(1);
      }
      for (int f = 0; f < files; ++f) {
        if (!session.value()->Upload("/f" + std::to_string(f), dataset[f]).ok()) {
          std::exit(1);
        }
      }
      (void)session.value()->Close();
    } else {
      for (int f = 0; f < files; ++f) {
        if (!client.Upload("/f" + std::to_string(f), dataset[f]).ok()) {
          std::exit(1);
        }
      }
    }
    return watch.ElapsedSeconds();
  };

  PrintHeader("Multi-file backup: N one-shot uploads vs one session");
  std::printf("%d files x %zuKB, %.0fms/call latency, %.0fMB/s per cloud\n", files, file_kb,
              latency_ms, uplink_mbps);
  double oneshot_s = run(false);
  double session_s = run(true);
  double speedup = session_s > 0 ? oneshot_s / session_s : 0;
  double per_file_saving_ms = files > 0 ? (oneshot_s - session_s) * 1e3 / files : 0;
  std::printf("one-shot: %.3fs   session: %.3fs   speedup %.2fx "
              "(%.2fms less per-file overhead)\n",
              oneshot_s, session_s, speedup, per_file_saving_ms);
  std::printf(
      "BENCH_JSON {\"bench\":\"session_multifile\",\"files\":%d,\"file_kb\":%zu,"
      "\"oneshot_s\":%.4f,\"session_s\":%.4f,\"speedup\":%.3f,"
      "\"per_file_saving_ms\":%.3f}\n",
      files, file_kb, oneshot_s, session_s, speedup, per_file_saving_ms);
}

// Pipelined sink-driven download (per-cloud fetch lanes overlapped with
// decode workers) and which clouds served it.
void BenchDownload(int argc, char** argv) {
  const size_t size_mb = static_cast<size_t>(FlagValue(argc, argv, "size_mb", 48));
  const double uplink_mbps = FlagValue(argc, argv, "uplink_mbps", 24);
  const double latency_ms = FlagValue(argc, argv, "latency_ms", 2);
  const int threads = static_cast<int>(FlagValue(argc, argv, "threads", 2));
  const double latency_s = latency_ms / 1e3;
  const double uplink_bytes_per_s = uplink_mbps * 1e6;

  Bytes data = RandomData(size_mb * 1024 * 1024, 777);
  auto world = MakeDeployment(latency_s, uplink_bytes_per_s, g_shared_uplink);
  std::vector<Transport*> transports;
  for (auto& t : world->transports) {
    transports.push_back(t.get());
  }
  {
    CdstoreClient uploader(transports, /*user=*/1, BenchClientOptions(threads));
    if (!uploader.Upload("/bench", data).ok()) {
      std::fprintf(stderr, "upload for download bench failed\n");
      std::exit(1);
    }
  }

  CdstoreClient client(transports, /*user=*/1, BenchClientOptions(threads));
  Bytes restored;
  BufferByteSink sink(&restored);
  DownloadStats stats;
  Stopwatch watch;
  Status st = client.Download("/bench", sink, &stats);
  double secs = watch.ElapsedSeconds();
  if (!st.ok() || restored != data) {
    std::fprintf(stderr, "download failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  PrintHeader("Pipelined download (wall clock, simulated clouds)");
  std::printf("%zuMB, %.0fms/call latency, %.0fMB/s per cloud path: %.1f MB/s\n", size_mb,
              latency_ms, uplink_mbps, ToMiBps(data.size(), secs));
  // Per-cloud skew: which clouds actually served the restore, and how much.
  for (size_t c = 0; c < stats.per_cloud.size(); ++c) {
    const CloudDownloadStats& cs = stats.per_cloud[c];
    if (cs.rpcs == 0 && cs.received_share_bytes == 0) {
      continue;
    }
    std::printf("  cloud %zu: %.1f MB received over %llu RPCs\n", c,
                static_cast<double>(cs.received_share_bytes) / (1024 * 1024),
                static_cast<unsigned long long>(cs.rpcs));
    std::printf(
        "BENCH_JSON {\"bench\":\"download_cloud_skew\",\"cloud\":%zu,"
        "\"received_bytes\":%llu,\"rpcs\":%llu}\n",
        c, static_cast<unsigned long long>(cs.received_share_bytes),
        static_cast<unsigned long long>(cs.rpcs));
  }
}

// M concurrent BackupSessions (distinct users, distinct data, each over
// its own WAN paths) against ONE set of servers: the server-side scaling
// scenario the striped-lock dispatch surface exists for. Under the old
// global server mutex, aggregate throughput stayed ~flat as clients were
// added; with fingerprint-striped handlers it should grow until the wire
// or the host CPU saturates.
void BenchMultiClient(int argc, char** argv) {
  const size_t file_mb = static_cast<size_t>(FlagValue(argc, argv, "mc_file_mb", 8));
  const double uplink_mbps = FlagValue(argc, argv, "mc_uplink_mbps", 12);
  const double latency_ms = FlagValue(argc, argv, "mc_latency_ms", 2);
  const double latency_s = latency_ms / 1e3;
  const double uplink_bytes_per_s = uplink_mbps * 1e6;

  PrintHeader("Multi-client upload scaling (one server set, M concurrent sessions)");
  std::printf("%zuMB/client, %.0fms/call latency, %.0fMB/s per client-cloud path\n", file_mb,
              latency_ms, uplink_mbps);

  // Record into a scenario-local registry so the accel hit-rate line below
  // reflects exactly this workload's FpQuery traffic.
  MetricRegistry registry;
  g_metrics = &registry;

  auto client_options = []() {
    ClientOptions opts;
    opts.n = kN;
    opts.k = kK;
    // Cheap client compute (fixed chunking, one encode worker) keeps the
    // measurement about the server dispatch surface, not client encoding.
    opts.encode_threads = 1;
    opts.fixed_chunking = true;
    opts.fixed_chunk_size = 8192;
    return opts;
  };

  double aggregate_1 = 0;
  for (int clients : {1, 2, 4}) {
    auto world = MakeDeployment(latency_s, uplink_bytes_per_s, /*shared_uplink=*/false);
    // One transport set per client: own WAN path, shared servers.
    for (int c = 1; c < clients; ++c) {
      for (int i = 0; i < kN; ++i) {
        world->client_transports.push_back(std::make_unique<DelayTransport>(
            world->servers[i]->AsHandler(), latency_s, uplink_bytes_per_s, nullptr));
      }
    }
    std::vector<Bytes> dataset;
    for (int c = 0; c < clients; ++c) {
      dataset.push_back(RandomData(file_mb * 1024 * 1024, 31337 + c));
    }
    std::atomic<int> failures{0};
    Stopwatch watch;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c]() {
        std::vector<Transport*> transports;
        for (int i = 0; i < kN; ++i) {
          transports.push_back(c == 0 ? static_cast<Transport*>(world->transports[i].get())
                                      : world->client_transports[(c - 1) * kN + i].get());
        }
        CdstoreClient client(transports, /*user=*/static_cast<UserId>(c + 1),
                             client_options());
        auto session = client.OpenBackupSession();
        if (!session.ok() ||
            !session.value()->Upload("/client" + std::to_string(c), dataset[c]).ok()) {
          ++failures;
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    double secs = watch.ElapsedSeconds();
    if (failures.load() != 0) {
      std::fprintf(stderr, "multi-client upload failed\n");
      std::exit(1);
    }
    double aggregate = ToMiBps(static_cast<uint64_t>(clients) * file_mb * 1024 * 1024, secs);
    if (clients == 1) {
      aggregate_1 = aggregate;
    }
    double scaling = aggregate_1 > 0 ? aggregate / aggregate_1 : 0;
    std::printf("%d client(s): %.1f MB/s aggregate (%.2fx vs 1 client)\n", clients, aggregate,
                scaling);
    std::printf(
        "BENCH_JSON {\"bench\":\"multi_client_upload\",\"clients\":%d,\"file_mb\":%zu,"
        "\"uplink_mbps\":%.1f,\"latency_ms\":%.1f,\"aggregate_mibps\":%.2f,"
        "\"scaling_vs_1\":%.3f}\n",
        clients, file_mb, uplink_mbps, latency_ms, aggregate, scaling);
  }
  // How much of the concurrent-upload FpQuery traffic the dedup accel
  // absorbed without an LSM read (summed across the 1/2/4-client rounds).
  PrintAccelHitRate(registry, "multi_client_upload");
  g_metrics = nullptr;
}

// The obs acceptance gate: the same streaming upload, metrics off vs fully
// wired (server dispatch histograms, client per-cloud RPC timers, queue
// gauges, dedup counters). No simulated latency or bandwidth cap, so the
// run is compute-bound and any recording cost lands squarely in the wall
// clock. Best-of-3 per arm, alternating, to cancel machine drift.
void BenchMetricsOverhead(int argc, char** argv) {
  const size_t size_mb = static_cast<size_t>(FlagValue(argc, argv, "metrics_mb", 16));
  const int threads = static_cast<int>(FlagValue(argc, argv, "threads", 2));
  Bytes data = RandomData(size_mb * 1024 * 1024, 6060);

  PrintHeader("Metrics overhead: streaming upload, obs off vs fully instrumented");
  std::printf("%zuMB, fixed8k, %d encode threads, no simulated wire\n", size_mb, threads);
  double off = 0;
  double on = 0;
  for (int rep = 0; rep < 3; ++rep) {
    g_metrics = nullptr;
    off = std::max(off, MeasureUploadMiBps(data, threads));
    MetricRegistry registry;
    g_metrics = &registry;
    on = std::max(on, MeasureUploadMiBps(data, threads));
    g_metrics = nullptr;
  }
  double overhead_pct = off > 0 ? (off - on) / off * 100.0 : 0;
  std::printf("metrics off: %.1f MB/s   on: %.1f MB/s   overhead %.2f%%\n", off, on,
              overhead_pct);
  std::printf("BENCH_JSON {\"bench\":\"metrics_overhead\",\"size_mb\":%zu,"
              "\"off_mibps\":%.2f,\"on_mibps\":%.2f,\"overhead_pct\":%.2f}\n",
              size_mb, off, on, overhead_pct);
}

// The tracing acceptance gate (PR 9): the same compute-bound streaming
// upload in three arms — tracer off, tracer attached but the request
// unsampled (the always-on production configuration: one sampling decision
// per request, every span site reduced to a nullptr/flag check), and fully
// sampled (every span recorded into the per-thread rings, context on every
// wire frame). "Unsampled within noise" is the gate; the sampled number
// prices what a traced request actually costs. Best-of-3 alternating.
void BenchTraceOverhead(int argc, char** argv) {
  const size_t size_mb = static_cast<size_t>(FlagValue(argc, argv, "trace_mb", 16));
  const int threads = static_cast<int>(FlagValue(argc, argv, "threads", 2));
  Bytes data = RandomData(size_mb * 1024 * 1024, 7070);

  PrintHeader("Tracing overhead: streaming upload, off vs unsampled vs sampled");
  std::printf("%zuMB, fixed8k, %d encode threads, no simulated wire\n", size_mb, threads);
  double off = 0;
  double unsampled = 0;
  double sampled = 0;
  for (int rep = 0; rep < 3; ++rep) {
    g_tracer = nullptr;
    off = std::max(off, MeasureUploadMiBps(data, threads));
    {
      // sample_every_n beyond the request count: the tracer is live on
      // every span site but no request wins the sampling lottery.
      TraceOptions topts;
      topts.sample_every_n = 1u << 30;
      topts.slow_threshold_ns = UINT64_MAX;
      Tracer tracer(topts);
      g_tracer = &tracer;
      unsampled = std::max(unsampled, MeasureUploadMiBps(data, threads));
    }
    {
      Tracer tracer;  // defaults: every request sampled
      g_tracer = &tracer;
      sampled = std::max(sampled, MeasureUploadMiBps(data, threads));
    }
    g_tracer = nullptr;
  }
  double unsampled_pct = off > 0 ? (off - unsampled) / off * 100.0 : 0;
  double sampled_pct = off > 0 ? (off - sampled) / off * 100.0 : 0;
  std::printf("tracing off: %.1f MB/s   unsampled: %.1f MB/s (%.2f%%)   "
              "sampled: %.1f MB/s (%.2f%%)\n",
              off, unsampled, unsampled_pct, sampled, sampled_pct);
  std::printf("BENCH_JSON {\"bench\":\"trace_overhead\",\"size_mb\":%zu,"
              "\"off_mibps\":%.2f,\"unsampled_mibps\":%.2f,\"sampled_mibps\":%.2f,"
              "\"unsampled_overhead_pct\":%.2f,\"sampled_overhead_pct\":%.2f}\n",
              size_mb, off, unsampled, sampled, unsampled_pct, sampled_pct);
}

double MeasureGfMiBps(void (*fn)(uint8_t*, const uint8_t*, size_t, const uint8_t*,
                                 const uint8_t*),
                      size_t region, double budget_s) {
  const auto& t = internal::GetGf256Tables();
  Bytes src = RandomData(region, 1);
  Bytes dst = RandomData(region, 2);
  // Warm up + calibrate.
  fn(dst.data(), src.data(), region, t.split_lo[57], t.split_hi[57]);
  Stopwatch watch;
  uint64_t bytes = 0;
  while (watch.ElapsedSeconds() < budget_s) {
    fn(dst.data(), src.data(), region, t.split_lo[57], t.split_hi[57]);
    bytes += region;
  }
  return ToMiBps(bytes, watch.ElapsedSeconds());
}

void ScalarKernel(uint8_t* dst, const uint8_t* src, size_t n, const uint8_t* lo,
                  const uint8_t* hi) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= static_cast<uint8_t>(lo[src[i] & 0xf] ^ hi[src[i] >> 4]);
  }
}

void BenchKernels() {
  PrintHeader("GF(256) AddMulRegion tiers (MB/s)");
  std::printf("%-10s %-12s %-12s %-12s\n", "Region", "Scalar", "SSSE3", "AVX2");
  for (size_t region : {4096ul, 65536ul, 1048576ul}) {
    double scalar = MeasureGfMiBps(&ScalarKernel, region, 0.2);
    double ssse3 =
        internal::SimdAvailable() ? MeasureGfMiBps(&internal::AddMulRegionSsse3, region, 0.2) : 0;
    double avx2 =
        internal::Avx2Available() ? MeasureGfMiBps(&internal::AddMulRegionAvx2, region, 0.2) : 0;
    std::printf("%-10zu %-12.0f %-12.0f %-12.0f\n", region, scalar, ssse3, avx2);
    std::printf(
        "BENCH_JSON {\"bench\":\"gf256_addmul\",\"region\":%zu,\"scalar_mibps\":%.1f,"
        "\"ssse3_mibps\":%.1f,\"avx2_mibps\":%.1f}\n",
        region, scalar, ssse3, avx2);
  }

  PrintHeader("SHA-256 compression (MB/s, 1MB messages)");
  const size_t msg_size = 1 << 20;
  Bytes msg = RandomData(msg_size, 3);
  auto measure_sha = [&](bool use_ni) {
    uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    size_t blocks = msg_size / Sha256::kBlockSize;
    Stopwatch watch;
    uint64_t bytes = 0;
    while (watch.ElapsedSeconds() < 0.2) {
      if (use_ni) {
        internal::ShaNiProcessBlocks(state, msg.data(), blocks);
      } else {
        internal::Sha256ProcessBlocksScalar(state, msg.data(), blocks);
      }
      bytes += blocks * Sha256::kBlockSize;
    }
    return ToMiBps(bytes, watch.ElapsedSeconds());
  };
  double scalar = measure_sha(false);
  double ni = internal::ShaNiAvailable() ? measure_sha(true) : 0;
  std::printf("scalar: %.0f   sha-ni: %.0f   (%.1fx)\n", scalar, ni,
              scalar > 0 ? ni / scalar : 0);
  std::printf("BENCH_JSON {\"bench\":\"sha256\",\"scalar_mibps\":%.1f,\"shani_mibps\":%.1f}\n",
              scalar, ni);
}

}  // namespace
}  // namespace cdstore

int main(int argc, char** argv) {
  cdstore::g_stream_batch_bytes =
      static_cast<size_t>(cdstore::FlagValue(argc, argv, "stream_batch_kb", 1024)) * 1024;
  cdstore::g_queue_depth =
      static_cast<size_t>(cdstore::FlagValue(argc, argv, "queue_depth", 64));
  cdstore::g_shared_uplink = cdstore::FlagValue(argc, argv, "shared_uplink", 0) != 0;
  cdstore::BenchKernels();
  cdstore::BenchSession(argc, argv);
  cdstore::BenchDownload(argc, argv);
  cdstore::BenchMultiClient(argc, argv);
  cdstore::BenchMetricsOverhead(argc, argv);
  cdstore::BenchTraceOverhead(argc, argv);
  return 0;
}
