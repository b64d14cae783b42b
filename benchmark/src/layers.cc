#include "layers.h"

#include <atomic>
#include <chrono>

#include "src/net/message.h"
#include "src/net/service.h"
#include "src/util/sync.h"

namespace cdbench {

using cdstore::Bytes;
using cdstore::ConstByteSpan;
using cdstore::Result;
using cdstore::Status;

namespace {

std::atomic<Phase> g_phase{Phase::kNone};

// Span buffers, owned here so records outlive the program thread that
// made them: the client runs many RPCs on short-lived std::async threads.
// A thread takes an idle buffer on its first span and hands it back when
// it exits, so the buffer count stays at the peak number of live threads.
struct Buffers {
  cdstore::Mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> all GUARDED_BY(mu);
  std::vector<std::vector<SpanRecord>*> idle GUARDED_BY(mu);
};

Buffers& AllBuffers() {
  static Buffers* buffers = new Buffers();  // never destroyed: threads may outlive main
  return *buffers;
}

class ThreadSlot {
 public:
  ThreadSlot() {
    Buffers& b = AllBuffers();
    cdstore::MutexLock lock(b.mu);
    if (b.idle.empty()) {
      b.all.push_back(std::make_unique<std::vector<SpanRecord>>());
      buffer_ = b.all.back().get();
    } else {
      buffer_ = b.idle.back();
      b.idle.pop_back();
    }
  }
  ~ThreadSlot() {
    Buffers& b = AllBuffers();
    cdstore::MutexLock lock(b.mu);
    b.idle.push_back(buffer_);
  }
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;

  std::vector<SpanRecord>& buffer() { return *buffer_; }

 private:
  std::vector<SpanRecord>* buffer_;
};

std::vector<SpanRecord>& ThreadBuffer() {
  thread_local ThreadSlot slot;
  return slot.buffer();
}

thread_local ScopedLayerSpan* tl_top = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetPhase(Phase phase) { g_phase.store(phase, std::memory_order_relaxed); }

Phase CurrentPhase() { return g_phase.load(std::memory_order_relaxed); }

std::vector<SpanRecord> DrainSpans() {
  Buffers& b = AllBuffers();
  cdstore::MutexLock lock(b.mu);
  std::vector<SpanRecord> out;
  for (auto& buffer : b.all) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

ScopedLayerSpan::ScopedLayerSpan(Layer layer, uint8_t kind, uint16_t client)
    : parent_(tl_top) {
  rec_.layer = layer;
  rec_.kind = kind;
  rec_.client = client;
  rec_.phase = CurrentPhase();
  tl_top = this;
  rec_.start_ns = NowNs();
}

ScopedLayerSpan::~ScopedLayerSpan() {
  rec_.end_ns = NowNs();
  int64_t dur = rec_.end_ns - rec_.start_ns;
  rec_.self_ns = dur - child_ns_;
  tl_top = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += dur;
  }
  ThreadBuffer().push_back(rec_);
}

void RecordClientOp(uint16_t client, int64_t start_ns, int64_t end_ns) {
  SpanRecord rec;
  rec.layer = Layer::kClient;
  rec.client = client;
  rec.phase = CurrentPhase();
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.self_ns = end_ns - start_ns;  // RPC intervals are subtracted later
  ThreadBuffer().push_back(rec);
}

Result<Bytes> TracedTransport::Call(ConstByteSpan request) {
  uint8_t type = request.empty() ? 0 : request[0];
  Result<Bytes> reply = Status::Internal("unset");
  {
    ScopedLayerSpan span(Layer::kNet, type, client_);
    reply = inner_->Call(request);
    span.set_bytes(request.size(), reply.ok() ? reply.value().size() : 0);
  }
  if (inserts_ != nullptr && reply.ok() &&
      type == static_cast<uint8_t>(cdstore::MsgType::kUploadSharesRequest)) {
    cdstore::UploadSharesReply r;
    if (cdstore::Decode(reply.value(), &r).ok()) {
      cdstore::MutexLock lock(inserts_->mu);
      inserts_->batches.push_back(r.stored);
    }
  }
  return reply;
}

cdstore::RpcHandler TimedHandler(cdstore::CdstoreServer* server) {
  return [server](ConstByteSpan frame) {
    ScopedLayerSpan span(Layer::kServer, frame.empty() ? 0 : frame[0]);
    Bytes reply = cdstore::Dispatch(*server, frame);
    span.set_bytes(frame.size(), reply.size());
    return reply;
  };
}

namespace {
constexpr uint8_t Op(BackendOp op) { return static_cast<uint8_t>(op); }
}  // namespace

Status TracedBackend::Put(const std::string& name, ConstByteSpan data) {
  ScopedLayerSpan span(Layer::kBackend, Op(BackendOp::kPut));
  span.set_bytes(data.size(), 0);
  return inner_->Put(name, data);
}

Result<Bytes> TracedBackend::Get(const std::string& name) {
  ScopedLayerSpan span(Layer::kBackend, Op(BackendOp::kGet));
  Result<Bytes> out = inner_->Get(name);
  span.set_bytes(0, out.ok() ? out.value().size() : 0);
  return out;
}

Status TracedBackend::Delete(const std::string& name) {
  ScopedLayerSpan span(Layer::kBackend, Op(BackendOp::kDelete));
  return inner_->Delete(name);
}

Result<std::vector<std::string>> TracedBackend::List() {
  ScopedLayerSpan span(Layer::kBackend, Op(BackendOp::kList));
  return inner_->List();
}

bool TracedBackend::Exists(const std::string& name) {
  ScopedLayerSpan span(Layer::kBackend, Op(BackendOp::kExists));
  return inner_->Exists(name);
}

}  // namespace cdbench
