// Per-layer attribution for the traced run. Spans are recorded at four
// seams, all from the benchmark's own code around calls into each layer's
// public interface (the program's internal spans and metric families are
// deliberately not read):
//
//   client   one span per client operation (file Open->Finish, Download,
//            RestoreNamespace, retention), issued by the workload code
//   net      a Transport wrapper around each InProcTransport, classified by
//            the request's RPC type
//   server   a timed RpcHandler around Dispatch(*server, frame), plus the
//            benchmark's direct server calls (Flush)
//   backend  a StorageBackend wrapper around each LocalDirBackend
//
// net -> server -> backend nest on one thread, so their self times come
// from a thread-local span stack. Client operations fan out to uploader and
// fetch-lane threads, so a client's self time is its operation span minus
// the union of that client's RPC intervals (computed when the spans are
// aggregated). Records go to per-thread vectors and are merged only after
// a round, when every program thread has stopped.
#ifndef CDSTORE_BENCHMARK_LAYERS_H_
#define CDSTORE_BENCHMARK_LAYERS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/util/sync.h"

namespace cdbench {

enum class Layer : uint8_t { kClient, kNet, kServer, kBackend };
inline constexpr int kNumLayers = 4;

// Timed phases of a round. kNone covers set-up and the benchmark's own
// checks; their spans are dropped from the per-layer numbers.
enum class Phase : uint8_t { kNone, kBackup, kRestore, kMaintenance };
inline constexpr int kNumPhases = 4;

enum class BackendOp : uint8_t { kPut, kGet, kDelete, kList, kExists };

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;
  uint64_t bytes_in = 0;   // request / put bytes
  uint64_t bytes_out = 0;  // reply / get bytes
  uint16_t client = 0;     // issuing client (client and net spans)
  Layer layer = Layer::kClient;
  Phase phase = Phase::kNone;
  uint8_t kind = 0;  // net/server: request MsgType; backend: BackendOp
};

int64_t NowNs();

// The phase new spans are tagged with (set by the round loop).
void SetPhase(Phase phase);
Phase CurrentPhase();

// Every record since the last call, from all threads. Call only while no
// span is open anywhere (between rounds).
std::vector<SpanRecord> DrainSpans();

// RAII span of the net, server or backend layer. Self time subtracts the
// nested spans of the same thread.
class ScopedLayerSpan {
 public:
  ScopedLayerSpan(Layer layer, uint8_t kind, uint16_t client = 0);
  ~ScopedLayerSpan();

  ScopedLayerSpan(const ScopedLayerSpan&) = delete;
  ScopedLayerSpan& operator=(const ScopedLayerSpan&) = delete;

  void set_bytes(uint64_t in, uint64_t out) {
    rec_.bytes_in = in;
    rec_.bytes_out = out;
  }

 private:
  SpanRecord rec_;
  int64_t child_ns_ = 0;
  ScopedLayerSpan* parent_;
};

// Records one client operation span (not part of the thread-local stack:
// the RPCs it causes run on other threads).
void RecordClientOp(uint16_t client, int64_t start_ns, int64_t end_ns);

// The share-index insert batches one session caused on one cloud: the
// stored-share count of each UploadShares reply, in order.
struct InsertLog {
  cdstore::Mutex mu;
  std::vector<uint32_t> batches GUARDED_BY(mu);
};

// Net seam: times every call through `inner`. When `inserts` is set, each
// successful UploadShares reply's stored-share count is appended to it.
class TracedTransport : public cdstore::Transport {
 public:
  TracedTransport(cdstore::Transport* inner, uint16_t client, InsertLog* inserts)
      : inner_(inner), client_(client), inserts_(inserts) {}

  cdstore::Result<cdstore::Bytes> Call(cdstore::ConstByteSpan request) override;

 private:
  cdstore::Transport* inner_;
  uint16_t client_;
  InsertLog* inserts_;
};

// Server seam: Dispatch(*server, frame) inside a server span.
cdstore::RpcHandler TimedHandler(cdstore::CdstoreServer* server);

// Backend seam.
class TracedBackend : public cdstore::StorageBackend {
 public:
  explicit TracedBackend(std::unique_ptr<cdstore::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  cdstore::Status Put(const std::string& name, cdstore::ConstByteSpan data) override;
  cdstore::Result<cdstore::Bytes> Get(const std::string& name) override;
  cdstore::Status Delete(const std::string& name) override;
  cdstore::Result<std::vector<std::string>> List() override;
  bool Exists(const std::string& name) override;

 private:
  std::unique_ptr<cdstore::StorageBackend> inner_;
};

}  // namespace cdbench

#endif  // CDSTORE_BENCHMARK_LAYERS_H_
