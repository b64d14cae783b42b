// The typed server-side service API. Transports and the RPC dispatcher no
// longer hand servers raw frames to re-parse and re-encode: a frame is
// decoded exactly once by Dispatch(), the handler sees a typed request —
// with UploadShares payloads as zero-copy spans into the request frame —
// and writes its reply through a ReplyBuilder that serializes straight into
// the outgoing frame. Dispatch(service, frame) -> frame preserves the old
// frame-in/frame-out contract for InProcTransport and TcpServer.
#ifndef CDSTORE_SRC_NET_SERVICE_H_
#define CDSTORE_SRC_NET_SERVICE_H_

#include <atomic>

#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/util/io.h"

namespace cdstore {

// Accumulates exactly one reply frame. A handler either Send()s a typed
// reply / SendError()s a status, or — for GetShares, whose payload
// dominates — streams shares into the frame with BeginShares()/AddShare()
// so the fetched bytes are serialized once instead of being gathered into
// a vector<Bytes> and copied again by an encoder. All paths produce frames
// byte-identical to the Encode()/EncodeError() wire format.
class ReplyBuilder {
 public:
  template <class Reply>
  void Send(const Reply& m) {
    Finish(Encode(m));
  }
  // An error overrides any partially streamed reply.
  void SendError(const Status& status) { Finish(EncodeError(status)); }

  // Streaming GetShares reply: header once, then each share appended
  // directly to the frame. `count` must match the AddShare() call count.
  void BeginShares(size_t count) {
    shares_ = BeginGetSharesReply(count);
    streaming_ = true;
  }
  void AddShare(ConstByteSpan share) { AppendShare(&shares_, share); }

  // True once a terminal Send/SendError (not BeginShares) ran.
  bool sent() const { return sent_; }

  // The completed frame. A handler that returned without replying yields a
  // kError frame rather than an empty (malformed) one.
  Bytes TakeFrame();

 private:
  void Finish(Bytes frame) {
    frame_ = std::move(frame);
    sent_ = true;
  }

  Bytes frame_;
  BufferWriter shares_;  // streaming GetShares frame under construction
  bool streaming_ = false;
  bool sent_ = false;
};

// One typed method per request type of the wire protocol (§3.3/§4).
// Implementations must be thread-safe: the TCP front end and concurrent
// in-process clients invoke methods from many threads at once.
class ServerService {
 public:
  virtual ~ServerService() = default;

  virtual void FpQuery(const FpQueryRequest& req, ReplyBuilder& rb) = 0;
  // Shares are spans into the request frame, valid only for the call.
  virtual void UploadShares(const UploadSharesRequestView& req, ReplyBuilder& rb) = 0;
  virtual void PutFile(const PutFileRequest& req, ReplyBuilder& rb) = 0;
  virtual void GetFile(const GetFileRequest& req, ReplyBuilder& rb) = 0;
  virtual void GetShares(const GetSharesRequest& req, ReplyBuilder& rb) = 0;
  virtual void DeleteFile(const DeleteFileRequest& req, ReplyBuilder& rb) = 0;
  virtual void Stats(const StatsRequest& req, ReplyBuilder& rb) = 0;
  virtual void Gc(const GcRequest& req, ReplyBuilder& rb) = 0;
  // Versioned namespace (backup generations + retention-driven pruning).
  virtual void ListVersions(const ListVersionsRequest& req, ReplyBuilder& rb) = 0;
  virtual void DeleteVersion(const DeleteVersionRequest& req, ReplyBuilder& rb) = 0;
  virtual void ApplyRetention(const ApplyRetentionRequest& req, ReplyBuilder& rb) = 0;
  // Namespace-scoped control plane: paginated path enumeration and the
  // cross-path retention sweep (the whole-backup-set operations of §5.2 /
  // §5.6's evaluation workloads).
  virtual void ListPaths(const ListPathsRequest& req, ReplyBuilder& rb) = 0;
  virtual void ApplyRetentionNamespace(const ApplyRetentionNamespaceRequest& req,
                                       ReplyBuilder& rb) = 0;
  // Observability scrape. Not pure: the default implementation snapshots
  // metrics_registry() (empty reply when the service publishes none), so
  // existing service implementations pick up the RPC without changes.
  virtual void GetMetrics(const GetMetricsRequest& req, ReplyBuilder& rb);
  // Trace scrape, same pattern as GetMetrics: the default implementation
  // dumps tracer() (empty reply when tracing is off).
  virtual void GetTraces(const GetTracesRequest& req, ReplyBuilder& rb);

  // The registry this service records into, or nullptr when metrics are
  // off. When non-null, Dispatch() times every RPC into per-type
  // latency/bytes histograms and GetMetrics serves the snapshot.
  virtual MetricRegistry* metrics_registry() { return nullptr; }

  // The tracer this service records spans into, or nullptr when tracing is
  // off. When non-null, Dispatch() opens a server-side span per traced
  // request, parented under the wire context, and GetTraces serves the dump.
  virtual Tracer* tracer() { return nullptr; }

 private:
  friend Bytes Dispatch(ServerService& service, ConstByteSpan request);

  // Dispatch-side cache of the per-RPC-type instruments, so the hot path
  // is a relaxed pointer load instead of a registry lookup per RPC. Slots
  // fill lazily; the benign publish race resolves to the same registry
  // pointer. Indexed by request MsgType.
  struct RpcMetricsSlot {
    std::atomic<Histogram*> latency_ns{nullptr};
    std::atomic<Histogram*> request_bytes{nullptr};
    std::atomic<Histogram*> reply_bytes{nullptr};
  };
  RpcMetricsSlot rpc_metrics_[kNumMsgTypes];
};

// Frame-in/frame-out adapter: decodes `request` (once), invokes the typed
// method, returns the built reply frame. Malformed requests become kError
// frames, exactly as the untyped handler surface produced them.
Bytes Dispatch(ServerService& service, ConstByteSpan request);

// Wraps a service for transports still constructed around RpcHandler.
RpcHandler ServiceHandler(ServerService* service);

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_SERVICE_H_
