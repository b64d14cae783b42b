// Tests of the request-tracing subsystem (src/obs/trace.h): cross-thread
// span parenting through explicit context handoff, wire round-trip of the
// propagated trace context (including byte-compat of frames WITHOUT the
// envelope — the pre-tracing path must be untouched), once-per-request
// sampling determinism, worst-K flight-recorder retention with counted
// evictions, golden Chrome trace-event JSON, a record-vs-dump race (the
// TSAN target for the seqlock rings), and the end-to-end acceptance run:
// one traced upload through four simulated clouds yields ONE connected
// trace whose client and server spans share the propagated trace_id.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/message.h"
#include "src/net/service.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// Finds the first span with `name` in a dump, failing the test if absent.
const TraceSpanSample* FindSpan(const std::vector<TraceSpanSample>& spans,
                                const std::string& name) {
  for (const TraceSpanSample& s : spans) {
    if (s.name == name) {
      return &s;
    }
  }
  ADD_FAILURE() << "no span named " << name;
  return nullptr;
}

// ------------------------------------------------------- span mechanics

TEST(TraceSpanTest, NestedSpansChainUnderThreadParent) {
  Tracer tracer;
  TraceRequest req(&tracer, "root");
  {
    ScopedTraceParent parent(req.context());
    ScopedSpan outer(&tracer, "outer");
    ASSERT_TRUE(outer.active());
    // The open span became the thread's current parent.
    EXPECT_EQ(CurrentTraceContext().span_id, outer.context().span_id);
    ScopedSpan inner(&tracer, "inner");
    EXPECT_EQ(inner.context().trace_id, req.context().trace_id);
  }
  // The scope restored the pre-span parent (inactive here).
  EXPECT_FALSE(CurrentTraceContext().active());
  req.End();

  TraceDump dump = tracer.Dump();
  ASSERT_EQ(dump.spans.size(), 3u);
  const TraceSpanSample* outer = FindSpan(dump.spans, "outer");
  const TraceSpanSample* inner = FindSpan(dump.spans, "inner");
  const TraceSpanSample* root = FindSpan(dump.spans, "root");
  ASSERT_TRUE(outer != nullptr && inner != nullptr && root != nullptr);
  EXPECT_EQ(outer->parent_id, root->span_id);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(root->parent_id, 0u);
}

TEST(TraceSpanTest, CrossThreadParentingViaExplicitContext) {
  Tracer tracer;
  TraceRequest req(&tracer, "root");
  TraceContext handoff = req.context();
  std::thread worker([&] {
    // The worker thread has no current parent; the explicit-parent form is
    // the pipeline/fetch-lane handoff.
    EXPECT_FALSE(CurrentTraceContext().active());
    ScopedSpan span(&tracer, "worker", handoff);
    span.AnnotateKV("items", 3);
  });
  worker.join();
  req.End();

  TraceDump dump = tracer.Dump();
  const TraceSpanSample* root = FindSpan(dump.spans, "root");
  const TraceSpanSample* worker_span = FindSpan(dump.spans, "worker");
  ASSERT_TRUE(root != nullptr && worker_span != nullptr);
  EXPECT_EQ(worker_span->trace_id, root->trace_id);
  EXPECT_EQ(worker_span->parent_id, root->span_id);
  EXPECT_NE(worker_span->tid, root->tid);
  EXPECT_EQ(worker_span->annot, "items=3");
}

TEST(TraceSpanTest, NullTracerAndUnsampledContextAreInert) {
  ScopedSpan off(nullptr, "never");
  EXPECT_FALSE(off.active());
  off.Annotate("ignored");

  TraceOptions opts;
  opts.sample_every_n = 0;  // never sample
  Tracer tracer(opts);
  TraceRequest req(&tracer, "root");
  EXPECT_FALSE(req.context().active());
  {
    ScopedTraceParent parent(req.context());
    ScopedSpan span(&tracer, "child");
    EXPECT_FALSE(span.active());
  }
  req.End();
  EXPECT_EQ(tracer.Dump().spans.size(), 0u);
  EXPECT_EQ(tracer.unsampled(), 1u);
}

// ---------------------------------------------------------- sampling

TEST(TraceSamplingTest, EveryNthRequestSampledDeterministically) {
  TraceOptions opts;
  opts.sample_every_n = 4;
  opts.slow_threshold_ns = 0;  // no force-sampling in this test
  Tracer tracer(opts);
  std::vector<bool> sampled;
  for (int i = 0; i < 12; ++i) {
    TraceRequest req(&tracer, "req");
    sampled.push_back(req.context().active());
    req.End();
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(sampled[static_cast<size_t>(i)], i % 4 == 0) << "request " << i;
  }
  TraceDump dump = tracer.Dump();
  EXPECT_EQ(dump.spans.size(), 3u);  // requests 0, 4, 8
  EXPECT_EQ(dump.unsampled, 9u);
  EXPECT_EQ(tracer.spans_recorded(), 3u);
}

TEST(TraceSamplingTest, SlowUnsampledRequestForceRecordsRoot) {
  TraceOptions opts;
  opts.sample_every_n = 0;       // sampler never picks
  opts.slow_threshold_ns = 1;    // ...but everything is "slow"
  Tracer tracer(opts);
  TraceRequest req(&tracer, "slow_req");
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  req.End();
  TraceDump dump = tracer.Dump();
  ASSERT_EQ(dump.spans.size(), 1u);
  EXPECT_EQ(dump.spans[0].name, "slow_req");
  EXPECT_EQ(dump.spans[0].annot, "force_sampled");
  ASSERT_EQ(dump.slow.size(), 1u);
  EXPECT_EQ(dump.slow[0].root, "slow_req");
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, RetainsWorstKByDurationAndCountsEvictions) {
  TraceOptions opts;
  opts.flight_recorder_k = 4;
  Tracer tracer(opts);
  // Ten requests, durations 1..10ms, offered in an order that forces both
  // eviction directions (new-beats-incumbent and incumbent-survives).
  const uint64_t kMs = 1000 * 1000;
  for (uint64_t d : {3, 9, 1, 7, 5, 10, 2, 8, 4, 6}) {
    tracer.FinishRequest(/*trace_id=*/d, "req", d * kMs, /*sampled=*/true);
  }
  TraceDump dump = tracer.Dump();
  ASSERT_EQ(dump.slow.size(), 4u);
  // Worst K = {10,9,8,7}, reported descending.
  EXPECT_EQ(dump.slow[0].dur_ns, 10 * kMs);
  EXPECT_EQ(dump.slow[1].dur_ns, 9 * kMs);
  EXPECT_EQ(dump.slow[2].dur_ns, 8 * kMs);
  EXPECT_EQ(dump.slow[3].dur_ns, 7 * kMs);
  // Every offer beyond capacity shed something, whichever side lost.
  EXPECT_EQ(dump.flight_evictions, 6u);
}

// ------------------------------------------------------ shed accounting

TEST(TraceShedTest, RingOverflowCountsDropsAndKeepsMostRecent) {
  TraceOptions opts;
  opts.ring_slots = 8;  // tiny ring: overwrites are certain
  Tracer tracer(opts);
  TraceRequest req(&tracer, "root");
  {
    ScopedTraceParent parent(req.context());
    for (int i = 0; i < 100; ++i) {
      ScopedSpan span(&tracer, "hot");
    }
  }
  req.End();
  TraceDump dump = tracer.Dump();
  EXPECT_EQ(tracer.spans_recorded(), 101u);  // 100 children + root
  EXPECT_EQ(dump.spans_dropped, 101u - 8u);
  EXPECT_EQ(dump.spans.size(), 8u);
}

TEST(TraceShedTest, ShedCountersMirrorIntoRegistry) {
  MetricRegistry registry;
  TraceOptions opts;
  opts.ring_slots = 8;
  opts.sample_every_n = 2;
  opts.slow_threshold_ns = 0;
  opts.flight_recorder_k = 1;
  opts.metrics = &registry;
  Tracer tracer(opts);
  for (int r = 0; r < 4; ++r) {
    TraceRequest req(&tracer, "req");
    ScopedTraceParent parent(req.context());
    for (int i = 0; i < 20; ++i) {
      ScopedSpan span(&tracer, "hot");
    }
    req.End();
  }
  std::vector<MetricSample> samples = registry.Snapshot();
  auto value_of = [&](const std::string& name) -> uint64_t {
    for (const MetricSample& s : samples) {
      if (s.name == name) {
        return static_cast<uint64_t>(s.value);
      }
    }
    ADD_FAILURE() << "no metric " << name;
    return 0;
  };
  EXPECT_EQ(value_of("cdstore_trace_spans_recorded_total"), tracer.spans_recorded());
  EXPECT_EQ(value_of("cdstore_trace_spans_dropped_total"), tracer.spans_dropped());
  EXPECT_EQ(value_of("cdstore_trace_unsampled_total"), 2u);
  EXPECT_EQ(value_of("cdstore_trace_flight_evictions_total"), 3u);
  EXPECT_GT(tracer.spans_dropped(), 0u);
}

// ------------------------------------------------------------- the wire

TEST(TraceWireTest, EnvelopeRoundTripsContextAndInnerFrame) {
  Bytes inner = Encode(StatsRequest{});
  TraceContextHeader ctx{0x1234abcd5678ef01ull, 42, 1};
  Bytes wire = WrapTraced(ctx, inner);
  EXPECT_EQ(PeekType(wire), MsgType::kTracedRequest);

  TraceContextHeader got;
  ConstByteSpan unwrapped;
  ASSERT_TRUE(UnwrapTraced(wire, &got, &unwrapped).ok());
  EXPECT_EQ(got.trace_id, ctx.trace_id);
  EXPECT_EQ(got.parent_span_id, ctx.parent_span_id);
  EXPECT_EQ(got.sampled, 1);
  ASSERT_EQ(unwrapped.size(), inner.size());
  EXPECT_EQ(std::memcmp(unwrapped.data(), inner.data(), inner.size()), 0);
}

TEST(TraceWireTest, TruncatedEnvelopeRejected) {
  Bytes wire = WrapTraced(TraceContextHeader{1, 2, 1}, Encode(StatsRequest{}));
  TraceContextHeader got;
  ConstByteSpan inner;
  // Header only, no inner frame.
  EXPECT_FALSE(UnwrapTraced(ConstByteSpan(wire.data(), 18), &got, &inner).ok());
  // Not an envelope at all.
  Bytes plain = Encode(StatsRequest{});
  EXPECT_FALSE(UnwrapTraced(plain, &got, &inner).ok());
}

class TracedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions so;
    so.index_dir = dir_.Sub("server");
    so.tracer = &tracer_;
    auto server = CdstoreServer::Create(&backend_, so);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server.value());
  }

  TempDir dir_;
  MemBackend backend_;
  Tracer tracer_;
  std::unique_ptr<CdstoreServer> server_;
};

TEST_F(TracedServerTest, FrameWithoutEnvelopeTakesPreTracingPath) {
  // Old-peer compatibility: a pre-PR-9 frame (no kTracedRequest header)
  // must decode and serve exactly as before, and record no server spans.
  Bytes plain = Encode(StatsRequest{});
  Bytes reply = Dispatch(*server_, plain);
  StatsReply stats;
  ASSERT_TRUE(Decode(reply, &stats).ok());
  EXPECT_EQ(tracer_.Dump().spans.size(), 0u);
}

TEST_F(TracedServerTest, WireContextParentsServerSpans) {
  TraceContextHeader ctx{0xfeedull, 7, 1};
  Bytes reply = Dispatch(*server_, WrapTraced(ctx, Encode(StatsRequest{})));
  StatsReply stats;
  ASSERT_TRUE(Decode(reply, &stats).ok());

  TraceDump dump = tracer_.Dump();
  const TraceSpanSample* serve = FindSpan(dump.spans, "serve");
  ASSERT_TRUE(serve != nullptr);
  EXPECT_EQ(serve->trace_id, ctx.trace_id);
  EXPECT_EQ(serve->parent_id, ctx.parent_span_id);
  EXPECT_EQ(serve->annot, "Stats");
  // The reply itself is unchanged by the envelope.
  Bytes plain_reply = Dispatch(*server_, Encode(StatsRequest{}));
  EXPECT_EQ(reply.size(), plain_reply.size());
}

TEST_F(TracedServerTest, UnsampledWireContextRecordsNothing) {
  TraceContextHeader ctx{0xfeedull, 7, 0};
  Bytes reply = Dispatch(*server_, WrapTraced(ctx, Encode(StatsRequest{})));
  StatsReply stats;
  ASSERT_TRUE(Decode(reply, &stats).ok());
  EXPECT_EQ(tracer_.Dump().spans.size(), 0u);
}

TEST_F(TracedServerTest, GetTracesRpcServesTheDump) {
  Dispatch(*server_, WrapTraced(TraceContextHeader{0xabcull, 1, 1}, Encode(StatsRequest{})));
  Bytes reply = Dispatch(*server_, Encode(GetTracesRequest{}));
  GetTracesReply traces;
  ASSERT_TRUE(Decode(reply, &traces).ok());
  const TraceSpanSample* serve = FindSpan(traces.spans, "serve");
  ASSERT_TRUE(serve != nullptr);
  EXPECT_EQ(serve->trace_id, 0xabcull);
  EXPECT_EQ(traces.spans_recorded, tracer_.spans_recorded());
}

// ------------------------------------------------------- Chrome export

TEST(ChromeTraceTest, GoldenJson) {
  std::vector<TraceSpanSample> spans(2);
  spans[0].trace_id = 0xabc;
  spans[0].span_id = 1;
  spans[0].parent_id = 0;
  spans[0].start_ns = 2000;
  spans[0].dur_ns = 1500;
  spans[0].tid = 7;
  spans[0].name = "upload";
  spans[1].trace_id = 0xabc;
  spans[1].span_id = 2;
  spans[1].parent_id = 1;
  spans[1].start_ns = 2500;
  spans[1].dur_ns = 250;
  spans[1].tid = 8;
  spans[1].name = "upl\"oader";  // exercises escaping
  spans[1].annot = "cloud=2 ";
  EXPECT_EQ(ChromeTraceJson(spans, /*pid=*/3),
            "{\"traceEvents\":[\n"
            "{\"ph\":\"X\",\"cat\":\"cdstore\",\"ts\":2.000,\"dur\":1.500,"
            "\"pid\":3,\"tid\":7,\"name\":\"upload\",\"args\":{"
            "\"trace_id\":\"0xabc\",\"span_id\":\"0x1\",\"parent_id\":\"0x0\","
            "\"annot\":\"\"}},\n"
            "{\"ph\":\"X\",\"cat\":\"cdstore\",\"ts\":2.500,\"dur\":0.250,"
            "\"pid\":3,\"tid\":8,\"name\":\"upl\\\"oader\",\"args\":{"
            "\"trace_id\":\"0xabc\",\"span_id\":\"0x2\",\"parent_id\":\"0x1\","
            "\"annot\":\"cloud=2 \"}}\n"
            "]}\n");
}

TEST(ChromeTraceTest, TreeViewNestsByParent) {
  std::vector<TraceSpanSample> spans(2);
  spans[0].trace_id = 1;
  spans[0].span_id = 1;
  spans[0].name = "upload";
  spans[0].dur_ns = 2000000;
  spans[1].trace_id = 1;
  spans[1].span_id = 2;
  spans[1].parent_id = 1;
  spans[1].name = "chunk";
  spans[1].dur_ns = 1000;
  std::string tree = FormatTraceTree(spans);
  EXPECT_NE(tree.find("trace 0x1 (2 spans)"), std::string::npos);
  EXPECT_NE(tree.find("  upload"), std::string::npos);
  EXPECT_NE(tree.find("    chunk"), std::string::npos);
}

// ------------------------------------------------ record vs dump (TSAN)

TEST(TraceRaceTest, ConcurrentRecordAndDump) {
  TraceOptions opts;
  opts.ring_slots = 64;  // force constant overwrites under the readers
  Tracer tracer(opts);
  std::atomic<int> live{4};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      // Fixed work per writer (not a stop flag), so the dumper below is
      // guaranteed to race against live recording however threads schedule.
      for (int i = 0; i < 2000; ++i) {
        TraceRequest req(&tracer, "req");
        ScopedTraceParent parent(req.context());
        ScopedSpan span(&tracer, "work");
        span.AnnotateKV("t", 1);
      }
      live.fetch_sub(1);
    });
  }
  while (live.load() > 0) {
    TraceDump dump = tracer.Dump();
    // A torn slot must never surface: every published span is intact.
    for (const TraceSpanSample& s : dump.spans) {
      EXPECT_TRUE(s.name == "req" || s.name == "work") << s.name;
      EXPECT_NE(s.trace_id, 0u);
    }
    EXPECT_LE(dump.spans.size(), 5u * 64u);
  }
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_EQ(tracer.spans_recorded(), 4u * 2000u * 2u);
}

// ------------------------------------------- end-to-end (the acceptance)

TEST(TraceEndToEndTest, TracedUploadYieldsOneConnectedTrace) {
  constexpr int kN = 4;
  TempDir dir;
  Tracer tracer;  // shared by the client and all four servers, as the CLI does
  std::vector<std::unique_ptr<MemBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;
  std::vector<Transport*> ptrs;
  for (int i = 0; i < kN; ++i) {
    backends.push_back(std::make_unique<MemBackend>());
    ServerOptions so;
    so.index_dir = dir.Sub("server" + std::to_string(i));
    so.tracer = &tracer;
    auto server = CdstoreServer::Create(backends.back().get(), so);
    ASSERT_TRUE(server.ok()) << server.status();
    servers.push_back(std::move(server.value()));
    transports.push_back(std::make_unique<InProcTransport>(servers.back()->AsHandler()));
    ptrs.push_back(transports.back().get());
  }
  ClientOptions opts;
  opts.n = kN;
  opts.k = 3;
  opts.encode_threads = 2;
  opts.tracer = &tracer;
  CdstoreClient client(ptrs, /*user=*/1, opts);
  Bytes data = Rng(99).RandomBytes(300000);
  ASSERT_TRUE(client.Upload("/traced", data).ok());

  TraceDump dump = tracer.Dump();
  ASSERT_GT(dump.spans.size(), 0u);
  EXPECT_EQ(dump.spans_dropped, 0u);

  // One trace: every client AND server span carries the root's trace_id.
  std::set<uint64_t> trace_ids;
  std::set<uint64_t> span_ids;
  std::set<std::string> names;
  for (const TraceSpanSample& s : dump.spans) {
    trace_ids.insert(s.trace_id);
    span_ids.insert(s.span_id);
    names.insert(s.name);
  }
  EXPECT_EQ(trace_ids.size(), 1u);
  // Client pipeline stages and server-side handler spans both present.
  for (const char* expected : {"upload", "chunk", "encode_worker", "uploader", "serve",
                               "kv_commit", "store_append", "recipe_append"}) {
    EXPECT_EQ(names.count(expected), 1u) << "missing span " << expected;
  }
  // Connected: every non-root span's parent exists in the dump.
  for (const TraceSpanSample& s : dump.spans) {
    if (s.parent_id != 0) {
      EXPECT_EQ(span_ids.count(s.parent_id), 1u)
          << "orphan span " << s.name << " parent " << s.parent_id;
    }
  }
  // All four uploader lanes RPC'd under the same trace.
  size_t serves = 0;
  for (const TraceSpanSample& s : dump.spans) {
    serves += s.name == "serve" ? 1 : 0;
  }
  EXPECT_GE(serves, 4u * 3u);  // FpQuery + UploadShares + PutFile per cloud

  // And the whole thing exports as parseable Chrome JSON with every event.
  std::string json = ChromeTraceJson(dump.spans);
  size_t events = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++events;
  }
  EXPECT_EQ(events, dump.spans.size());
}

}  // namespace
}  // namespace cdstore
