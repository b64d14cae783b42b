// Goodput under injected faults: a full CDStore client (chunking,
// CAONT-RS, dedup, pipelined download) over four FaultyHttpServer object
// stores, swept across fault rates. Each request to a cloud may draw a
// 500 or a stall from the seeded FaultPlan; the HTTP backend's
// retry/backoff + attempt deadlines absorb them, and the number that
// matters is how much goodput survives — the robustness cost curve of the
// retry layer.
//
// Emits one `BENCH_JSON {...}` line per (direction, fault-rate) point.
//
// Flags: --size_mb=8 --fault_pcts=0,5,20 --stall_ms=20 --attempts=6
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/faulty_http_server.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/storage/http_backend.h"
#include "src/util/fs_util.h"
#include "src/util/stats.h"

namespace cdstore {
namespace {

constexpr int kN = 4;
constexpr int kK = 3;

struct Deployment {
  TempDir dir;
  // One registry for the whole deployment: fault plans, retry layers,
  // servers, and the client all feed it, and the BENCH_JSON numbers are
  // read back out of it (the metrics pipeline exercised end to end).
  MetricRegistry registry;
  std::vector<std::unique_ptr<FaultyHttpServer>> object_stores;
  std::vector<std::unique_ptr<HttpObjectBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;
};

// Sum of one counter family across all its labelled series.
uint64_t SumCounter(const MetricRegistry& registry, const std::string& name) {
  uint64_t total = 0;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == name) {
      total += static_cast<uint64_t>(s.value);
    }
  }
  return total;
}

std::unique_ptr<Deployment> MakeDeployment(double fault_rate, uint64_t stall_ms,
                                           int attempts) {
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < kN; ++i) {
    FaultSpec faults;
    faults.error_rate = fault_rate / 2.0;  // half 5xx, half stalls
    faults.stall_rate = fault_rate / 2.0;
    faults.stall_ms = stall_ms;
    faults.seed = 0xBE7C0 + static_cast<uint64_t>(i);
    auto hs = FaultyHttpServer::Start(0, faults);
    if (!hs.ok()) {
      std::fprintf(stderr, "http server: %s\n", hs.status().ToString().c_str());
      std::exit(1);
    }
    d->object_stores.push_back(std::move(hs.value()));
    d->object_stores.back()->plan()->BindMetrics(d->registry.GetCounter(
        "cdstore_fault_injected_total", {{"cloud", std::to_string(i)}}));

    HttpBackendOptions bo;
    bo.retry.max_attempts = attempts;
    bo.retry.initial_backoff_ms = 2;
    bo.retry.max_backoff_ms = 20;
    bo.retry.attempt_deadline_ms = 2000;
    bo.retry.metrics = MakeRetryMetrics(&d->registry, "cloud" + std::to_string(i));
    auto backend = HttpObjectBackend::Open(
        d->object_stores.back()->endpoint("cloud" + std::to_string(i)), bo);
    if (!backend.ok()) {
      std::fprintf(stderr, "backend: %s\n", backend.status().ToString().c_str());
      std::exit(1);
    }
    d->backends.push_back(std::move(backend.value()));

    ServerOptions so;
    so.index_dir = d->dir.Sub("server" + std::to_string(i));
    so.container_capacity = 256 << 10;  // seal often: real PUT traffic
    // One container: a restore GETs each container once (not each share),
    // and still hits the wire.
    so.container_cache_bytes = 384 << 10;
    so.metrics = &d->registry;
    auto server = CdstoreServer::Create(d->backends.back().get(), so);
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
      std::exit(1);
    }
    d->servers.push_back(std::move(server.value()));
    d->transports.push_back(
        std::make_unique<InProcTransport>(d->servers.back()->AsHandler()));
  }
  return d;
}

void RunPoint(double fault_pct, size_t size_bytes, uint64_t stall_ms, int attempts) {
  auto d = MakeDeployment(fault_pct / 100.0, stall_ms, attempts);
  std::vector<Transport*> transports;
  for (auto& t : d->transports) {
    transports.push_back(t.get());
  }
  ClientOptions co;
  co.n = kN;
  co.k = kK;
  co.download_batch_bytes = 256 * 1024;
  co.metrics = &d->registry;
  CdstoreClient client(transports, 1, co);

  Bytes data = RandomData(size_bytes, 0xFA07 + static_cast<uint64_t>(fault_pct));

  Stopwatch t;
  Status up = client.Upload("/bench", data);
  for (auto& s : d->servers) {
    Status st = s->Flush();
    if (!st.ok() && up.ok()) {
      up = st;
    }
  }
  double up_s = t.ElapsedSeconds();
  if (!up.ok()) {
    std::fprintf(stderr, "upload failed at %.0f%%: %s\n", fault_pct,
                 up.ToString().c_str());
    std::exit(1);
  }

  t.Reset();
  auto down = client.Download("/bench");
  double down_s = t.ElapsedSeconds();
  if (!down.ok() || down.value() != data) {
    std::fprintf(stderr, "download failed/byte-mismatch at %.0f%%\n", fault_pct);
    std::exit(1);
  }

  // Fault/retry numbers come out of the metrics registry, the same series
  // GetMetrics and GET /metrics expose; the legacy ad-hoc counters only
  // cross-check it.
  uint64_t injected = SumCounter(d->registry, "cdstore_fault_injected_total");
  uint64_t attempts_total = SumCounter(d->registry, "cdstore_retry_attempts_total");
  uint64_t retried = 0;
  uint64_t requests = 0;
  uint64_t injected_adhoc = 0;
  for (int i = 0; i < kN; ++i) {
    injected_adhoc += d->object_stores[i]->plan()->faults_injected();
    retried += d->backends[i]->retries();
    requests += d->backends[i]->requests_sent();
  }
  if (injected != injected_adhoc || attempts_total < retried) {
    std::fprintf(stderr,
                 "metrics/ad-hoc counter mismatch: injected %llu vs %llu, "
                 "attempts %llu vs %llu retries\n",
                 static_cast<unsigned long long>(injected),
                 static_cast<unsigned long long>(injected_adhoc),
                 static_cast<unsigned long long>(attempts_total),
                 static_cast<unsigned long long>(retried));
    std::exit(1);
  }

  double mb = static_cast<double>(size_bytes) / (1024.0 * 1024.0);
  std::printf("  %5.1f%% faults: upload %6.2f MB/s, download %6.2f MB/s "
              "(%llu requests, %llu faults injected, %llu retries)\n",
              fault_pct, mb / up_s, mb / down_s,
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(retried));
  std::printf("BENCH_JSON {\"bench\":\"faultnet\",\"direction\":\"upload\","
              "\"fault_pct\":%.1f,\"mbps\":%.3f,\"requests\":%llu,"
              "\"faults\":%llu,\"retries\":%llu,\"retry_attempts\":%llu}\n",
              fault_pct, mb / up_s, static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(retried),
              static_cast<unsigned long long>(attempts_total));
  std::printf("BENCH_JSON {\"bench\":\"faultnet\",\"direction\":\"download\","
              "\"fault_pct\":%.1f,\"mbps\":%.3f}\n",
              fault_pct, mb / down_s);
}

void Run(int argc, char** argv) {
  double size_mb = FlagValue(argc, argv, "size_mb", 8.0);
  uint64_t stall_ms = static_cast<uint64_t>(FlagValue(argc, argv, "stall_ms", 20.0));
  int attempts = static_cast<int>(FlagValue(argc, argv, "attempts", 6.0));

  PrintHeader("goodput under injected faults (4 HTTP clouds, retry/backoff)");
  std::printf("  %zu MB file, stalls %llu ms, retry budget %d attempts\n",
              static_cast<size_t>(size_mb), static_cast<unsigned long long>(stall_ms),
              attempts);
  for (double pct : {0.0, 5.0, 20.0}) {
    RunPoint(pct, static_cast<size_t>(size_mb * 1024.0 * 1024.0), stall_ms, attempts);
  }
}

}  // namespace
}  // namespace cdstore

int main(int argc, char** argv) {
  cdstore::Run(argc, argv);
  return 0;
}
