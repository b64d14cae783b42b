// End-to-end robustness: a real CDStore client (chunking, CAONT-RS,
// dedup, pipelined download) over four clouds whose object stores are
// FaultyHttpServers reached through the HTTP backend. The assertions are
// the paper's availability story made executable: injected 5xx/stalls are
// absorbed by retry/backoff, a dead cloud is detached without stalling
// the upload, and a mid-download stall fails over to a spare lane within
// the configured deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/faulty_http_server.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/storage/http_backend.h"
#include "src/util/fault_plan.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

constexpr int kN = 4;
constexpr int kK = 3;

uint64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

// Four CDStore servers, each writing containers to its own faulty HTTP
// object store; the client reaches the servers in-process.
struct Deployment {
  TempDir dir;
  std::vector<std::unique_ptr<FaultyHttpServer>> object_stores;
  std::vector<std::unique_ptr<HttpObjectBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;

  std::vector<Transport*> TransportPtrs() {
    std::vector<Transport*> out;
    for (auto& t : transports) {
      out.push_back(t.get());
    }
    return out;
  }
};

std::unique_ptr<Deployment> MakeDeployment(const FaultSpec& faults) {
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < kN; ++i) {
    FaultSpec per_cloud = faults;
    per_cloud.seed = faults.seed + static_cast<uint64_t>(i);
    auto hs = FaultyHttpServer::Start(0, per_cloud);
    EXPECT_TRUE(hs.ok()) << hs.status();
    d->object_stores.push_back(std::move(hs.value()));

    HttpBackendOptions bo;
    bo.retry.max_attempts = 6;  // survive back-to-back scheduled faults
    bo.retry.initial_backoff_ms = 2;
    bo.retry.max_backoff_ms = 20;
    bo.retry.attempt_deadline_ms = 500;
    auto backend = HttpObjectBackend::Open(
        d->object_stores.back()->endpoint("cloud" + std::to_string(i)), bo);
    EXPECT_TRUE(backend.ok()) << backend.status();
    d->backends.push_back(std::move(backend.value()));

    ServerOptions so;
    so.index_dir = d->dir.Sub("server" + std::to_string(i));
    // Small containers and a useless cache: shares actually cross the HTTP
    // wire during upload (per-seal PUT) and download (per-batch GET),
    // instead of living in the server's buffers for the whole test.
    so.container_capacity = 64 * 1024;
    so.container_cache_bytes = 4096;
    auto server = CdstoreServer::Create(d->backends.back().get(), so);
    EXPECT_TRUE(server.ok()) << server.status();
    d->servers.push_back(std::move(server.value()));
    d->transports.push_back(
        std::make_unique<InProcTransport>(d->servers.back()->AsHandler()));
  }
  return d;
}

ClientOptions FastClientOptions() {
  ClientOptions o;
  o.n = kN;
  o.k = kK;
  o.encode_threads = 2;
  o.rabin.min_size = 512;
  o.rabin.avg_size = 2048;
  o.rabin.max_size = 8192;
  o.download_batch_bytes = 64 * 1024;  // several pipelined batches per cloud
  return o;
}

// --- acceptance: faulty run is byte-identical to the fault-free run -------

TEST(FaultNetTest, FaultyUploadDownloadMatchesFaultFreeRun) {
  Bytes data = Rng(0xFA017).RandomBytes(600 * 1024);

  // Fault-free reference.
  auto clean = MakeDeployment(FaultSpec{});
  CdstoreClient clean_client(clean->TransportPtrs(), 1, FastClientOptions());
  ASSERT_TRUE(clean_client.Upload("/file", data).ok());
  for (auto& s : clean->servers) {
    ASSERT_TRUE(s->Flush().ok());  // seal: every share is on the HTTP store
  }
  Bytes clean_out = clean_client.Download("/file").value();

  // 10% of requests misbehave: half 5xx, half stalled past nothing (50ms,
  // inside the attempt deadline, so stalls exercise slow-path latency while
  // 500s exercise retry).
  FaultSpec faults;
  faults.error_rate = 0.05;
  faults.stall_rate = 0.05;
  faults.stall_ms = 50;
  faults.seed = 0xBADC10D;
  auto faulty = MakeDeployment(faults);
  CdstoreClient faulty_client(faulty->TransportPtrs(), 1, FastClientOptions());
  ASSERT_TRUE(faulty_client.Upload("/file", data).ok());
  for (auto& s : faulty->servers) {
    ASSERT_TRUE(s->Flush().ok());
  }
  auto faulty_out = faulty_client.Download("/file");
  ASSERT_TRUE(faulty_out.ok()) << faulty_out.status();

  EXPECT_EQ(faulty_out.value(), data);
  EXPECT_EQ(faulty_out.value(), clean_out);

  // The schedule really did inject faults, and the retry layer really did
  // absorb some of them.
  uint64_t injected = 0;
  uint64_t retried = 0;
  for (int i = 0; i < kN; ++i) {
    injected += faulty->object_stores[i]->plan()->faults_injected();
    retried += faulty->backends[i]->retries();
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(retried, 0u);
}

// --- dead cloud: lane detaches fast, no stalled broadcast window -----------

TEST(FaultNetTest, DeadCloudDetachedWithoutStallingUpload) {
  Bytes data = Rng(0xDEAD).RandomBytes(400 * 1024);
  auto d = MakeDeployment(FaultSpec{});
  // Cloud 3 accepts TCP but fails every object operation: its lane burns
  // one retry budget, detaches from the broadcast queue, and the upload
  // fails cleanly (uploads need all n clouds for full redundancy) without
  // ever hanging the other three lanes.
  d->object_stores[3]->plan()->set_fail_all(true);

  CdstoreClient client(d->TransportPtrs(), 1, FastClientOptions());
  auto start = std::chrono::steady_clock::now();
  Status st = client.Upload("/doomed", data);
  EXPECT_FALSE(st.ok());
  // Bounded by the retry budget (6 attempts, <=20ms backoffs) — a dead
  // object store is an error, not a stall.
  EXPECT_LT(ElapsedMs(start), 30000u);

  // The cloud comes back; the same client uploads and reads back fine.
  d->object_stores[3]->plan()->set_fail_all(false);
  ASSERT_TRUE(client.Upload("/file", data).ok());
  EXPECT_EQ(client.Download("/file").value(), data);
}

// --- retry trace: attempt children mirror the seeded fault plan ------------

TEST(FaultNetTest, RetriedPutTraceShowsAttemptChildrenMatchingFaultPlan) {
  auto hs = FaultyHttpServer::Start(0, FaultSpec{});
  ASSERT_TRUE(hs.ok()) << hs.status();
  Tracer tracer;
  HttpBackendOptions bo;
  bo.retry.max_attempts = 6;
  bo.retry.initial_backoff_ms = 2;
  bo.retry.max_backoff_ms = 20;
  bo.tracer = &tracer;
  auto backend = HttpObjectBackend::Open(hs.value()->endpoint("cloud0"), bo);
  ASSERT_TRUE(backend.ok()) << backend.status();

  // The seeded plan: the next two requests 500, then clean. The PUT's trace
  // must therefore show one backend_put parent with exactly three attempt
  // children classified unavailable, unavailable, ok.
  hs.value()->plan()->ForceNext(FaultKind::kError, 2);
  Bytes data = Rng(0x7E57).RandomBytes(4096);
  TraceRequest req(&tracer, "put_req");
  TraceContext root = req.context();  // End() clears the live context
  {
    ScopedTraceParent parent(root);
    ASSERT_TRUE(backend.value()->Put("obj", data).ok());
  }
  req.End();

  TraceDump dump = tracer.Dump();
  const TraceSpanSample* put_span = nullptr;
  for (const TraceSpanSample& s : dump.spans) {
    if (s.name == "backend_put") {
      ASSERT_EQ(put_span, nullptr) << "one PUT, one backend_put span";
      put_span = &s;
    }
  }
  ASSERT_NE(put_span, nullptr);
  EXPECT_EQ(put_span->parent_id, root.span_id);

  std::vector<const TraceSpanSample*> attempts;
  for (const TraceSpanSample& s : dump.spans) {
    if (s.name == "attempt") {
      EXPECT_EQ(s.parent_id, put_span->span_id);
      attempts.push_back(&s);
    }
  }
  ASSERT_EQ(attempts.size(), 3u);
  // Spans are dump-sorted by start time, so attempt order is wall order.
  EXPECT_NE(attempts[0]->annot.find("unavailable"), std::string::npos) << attempts[0]->annot;
  EXPECT_NE(attempts[1]->annot.find("unavailable"), std::string::npos) << attempts[1]->annot;
  EXPECT_NE(attempts[2]->annot.find("ok"), std::string::npos) << attempts[2]->annot;
  // Failed attempts carry the backoff they cost; the final success none.
  EXPECT_NE(attempts[0]->annot.find("backoff_ms="), std::string::npos);
  EXPECT_NE(attempts[1]->annot.find("backoff_ms="), std::string::npos);
}

// --- mid-GET stall: lane failover inside the deadline ----------------------

TEST(FaultNetTest, MidDownloadStallFailsOverToSpareLane) {
  Bytes data = Rng(0x57A11).RandomBytes(400 * 1024);
  auto d = MakeDeployment(FaultSpec{});
  CdstoreClient client(d->TransportPtrs(), 1, FastClientOptions());
  ASSERT_TRUE(client.Upload("/file", data).ok());

  // After the upload, cloud 0 starts stalling every GET far past the
  // 500ms attempt deadline. Its download lane times out, fails the batch,
  // and the pipelined download recruits the spare cloud.
  FaultSpec stall;
  stall.stall_rate = 1.0;
  stall.stall_ms = 10000;
  d->object_stores[0]->plan()->set_spec(stall);

  auto start = std::chrono::steady_clock::now();
  DownloadStats stats;
  auto out = client.Download("/file", &stats);
  uint64_t elapsed = ElapsedMs(start);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value(), data);
  // Failover happened within the deadline budget (6 x 500ms worst case on
  // one batch), nowhere near waiting out 10s stalls per request.
  EXPECT_LT(elapsed, 8000u);
}

}  // namespace
}  // namespace cdstore
