#include "src/net/service.h"

namespace cdstore {

Bytes ReplyBuilder::TakeFrame() {
  if (sent_) {
    return std::move(frame_);
  }
  if (streaming_) {
    return shares_.Take();
  }
  return EncodeError(Status::Internal("handler produced no reply"));
}

void ServerService::GetMetrics(const GetMetricsRequest&, ReplyBuilder& rb) {
  GetMetricsReply reply;
  if (MetricRegistry* reg = metrics_registry(); reg != nullptr) {
    reply.samples = reg->Snapshot();
  }
  rb.Send(reply);
}

void ServerService::GetTraces(const GetTracesRequest&, ReplyBuilder& rb) {
  GetTracesReply reply;
  if (Tracer* t = tracer(); t != nullptr) {
    TraceDump dump = t->Dump();
    reply.spans = std::move(dump.spans);
    reply.slow = std::move(dump.slow);
    reply.spans_recorded = dump.spans_recorded;
    reply.spans_dropped = dump.spans_dropped;
    reply.unsampled = dump.unsampled;
    reply.flight_evictions = dump.flight_evictions;
  }
  rb.Send(reply);
}

namespace {

// Decodes into `Req`, then runs `method`; a decode failure short-circuits
// to a kError frame without invoking the service.
template <typename Req, typename Method>
Bytes DecodeAndCall(ServerService& service, ConstByteSpan request, Method method) {
  Req req;
  if (Status st = Decode(request, &req); !st.ok()) {
    return EncodeError(st);
  }
  ReplyBuilder rb;
  (service.*method)(req, rb);
  return rb.TakeFrame();
}

// Lazily resolves one cached instrument slot. The load/store race with a
// concurrent filler is benign: both resolve the same (name, labels) series
// and the registry hands back the identical pointer.
Histogram* SlotHistogram(std::atomic<Histogram*>& slot, MetricRegistry* reg,
                         const char* name, MsgType type,
                         const std::vector<uint64_t>& bounds) {
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    h = reg->GetHistogram(name, {{"rpc", RpcName(type)}}, bounds);
    slot.store(h, std::memory_order_release);
  }
  return h;
}

Bytes DispatchInner(ServerService& service, ConstByteSpan request) {
  switch (PeekType(request)) {
    case MsgType::kFpQueryRequest:
      return DecodeAndCall<FpQueryRequest>(service, request, &ServerService::FpQuery);
    case MsgType::kUploadSharesRequest:
      // The one request whose payload dominates: decoded as spans into the
      // frame so no share is copied before it reaches a container.
      return DecodeAndCall<UploadSharesRequestView>(service, request,
                                                    &ServerService::UploadShares);
    case MsgType::kPutFileRequest:
      return DecodeAndCall<PutFileRequest>(service, request, &ServerService::PutFile);
    case MsgType::kGetFileRequest:
      return DecodeAndCall<GetFileRequest>(service, request, &ServerService::GetFile);
    case MsgType::kGetSharesRequest:
      return DecodeAndCall<GetSharesRequest>(service, request, &ServerService::GetShares);
    case MsgType::kDeleteFileRequest:
      return DecodeAndCall<DeleteFileRequest>(service, request, &ServerService::DeleteFile);
    case MsgType::kStatsRequest:
      return DecodeAndCall<StatsRequest>(service, request, &ServerService::Stats);
    case MsgType::kGcRequest:
      return DecodeAndCall<GcRequest>(service, request, &ServerService::Gc);
    case MsgType::kListVersionsRequest:
      return DecodeAndCall<ListVersionsRequest>(service, request,
                                                &ServerService::ListVersions);
    case MsgType::kDeleteVersionRequest:
      return DecodeAndCall<DeleteVersionRequest>(service, request,
                                                 &ServerService::DeleteVersion);
    case MsgType::kApplyRetentionRequest:
      return DecodeAndCall<ApplyRetentionRequest>(service, request,
                                                  &ServerService::ApplyRetention);
    case MsgType::kListPathsRequest:
      return DecodeAndCall<ListPathsRequest>(service, request, &ServerService::ListPaths);
    case MsgType::kApplyRetentionNamespaceRequest:
      return DecodeAndCall<ApplyRetentionNamespaceRequest>(
          service, request, &ServerService::ApplyRetentionNamespace);
    case MsgType::kGetMetricsRequest:
      return DecodeAndCall<GetMetricsRequest>(service, request,
                                              &ServerService::GetMetrics);
    case MsgType::kGetTracesRequest:
      return DecodeAndCall<GetTracesRequest>(service, request,
                                             &ServerService::GetTraces);
    default:
      return EncodeError(Status::InvalidArgument("unknown request type"));
  }
}

}  // namespace

Bytes Dispatch(ServerService& service, ConstByteSpan request) {
  // A kTracedRequest envelope is peeled before the typed decode: `request`
  // becomes the inner frame, so metric slots and handlers see the real RPC
  // type, and frames WITHOUT the envelope take the exact pre-tracing path.
  TraceContextHeader wire_ctx;
  bool traced = false;
  if (PeekType(request) == MsgType::kTracedRequest) {
    ConstByteSpan inner;
    if (Status st = UnwrapTraced(request, &wire_ctx, &inner); !st.ok()) {
      return EncodeError(st);
    }
    request = inner;
    traced = true;
  }
  // Parent server-side work under the client's RPC span from the wire; the
  // "serve" span then covers decode + handler + encode, and every span the
  // handler opens chains beneath it into the client's trace.
  ScopedTraceParent wire_parent(traced ? TraceContext{wire_ctx.trace_id,
                                                     wire_ctx.parent_span_id,
                                                     wire_ctx.sampled != 0}
                                       : CurrentTraceContext());
  ScopedSpan serve(traced ? service.tracer() : nullptr, "serve");
  serve.Annotate(RpcName(PeekType(request)));

  MetricRegistry* reg = service.metrics_registry();
  if (reg == nullptr) {
    return DispatchInner(service, request);
  }
  // Every RPC of both transports funnels through here, so one timing site
  // yields the per-RPC-type p50/p99 and request/reply size distributions.
  MsgType type = PeekType(request);
  size_t idx = static_cast<size_t>(type);
  if (idx >= kNumMsgTypes) {
    idx = 0;  // unknown types share the kError slot
    type = MsgType::kError;
  }
  ServerService::RpcMetricsSlot& slot = service.rpc_metrics_[idx];
  Bytes reply;
  {
    ScopedTimer timer(SlotHistogram(slot.latency_ns, reg, "cdstore_server_rpc_latency_ns",
                                    type, LatencyBucketsNs()));
    reply = DispatchInner(service, request);
  }
  SlotHistogram(slot.request_bytes, reg, "cdstore_server_rpc_request_bytes", type,
                SizeBuckets())
      ->Observe(request.size());
  SlotHistogram(slot.reply_bytes, reg, "cdstore_server_rpc_reply_bytes", type,
                SizeBuckets())
      ->Observe(reply.size());
  return reply;
}

RpcHandler ServiceHandler(ServerService* service) {
  return [service](ConstByteSpan request) { return Dispatch(*service, request); };
}

}  // namespace cdstore
