#include "src/core/client.h"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/crypto/sha256.h"
#include "src/dispersal/secret_sharing.h"
#include "src/util/logging.h"
#include "src/util/sync.h"

namespace cdstore {

namespace {

// How many download batches each fetch lane may run ahead of the decoder.
// Restore memory is bounded by kFetchAhead * k * download_batch_bytes.
constexpr size_t kFetchAhead = 3;

CloudUploadStats& CloudSlot(UploadStats* stats, int cloud) {
  if (stats->per_cloud.size() <= static_cast<size_t>(cloud)) {
    stats->per_cloud.resize(cloud + 1);
  }
  return stats->per_cloud[cloud];
}

CloudDownloadStats& CloudSlot(DownloadStats* stats, int cloud) {
  if (stats->per_cloud.size() <= static_cast<size_t>(cloud)) {
    stats->per_cloud.resize(cloud + 1);
  }
  return stats->per_cloud[cloud];
}

void MergeUploadStats(UploadStats* into, const UploadStats& from) {
  into->logical_bytes += from.logical_bytes;
  if (from.generation_id != 0) {
    into->generation_id = from.generation_id;  // latest file's binding
  }
  into->num_secrets += from.num_secrets;
  into->logical_share_bytes += from.logical_share_bytes;
  into->transferred_share_bytes += from.transferred_share_bytes;
  into->intra_duplicate_shares += from.intra_duplicate_shares;
  into->chunk_encode_seconds += from.chunk_encode_seconds;
  for (size_t c = 0; c < from.per_cloud.size(); ++c) {
    CloudUploadStats& slot = CloudSlot(into, static_cast<int>(c));
    slot.transferred_share_bytes += from.per_cloud[c].transferred_share_bytes;
    slot.intra_duplicate_shares += from.per_cloud[c].intra_duplicate_shares;
    slot.rpcs += from.per_cloud[c].rpcs;
  }
}

// Every cloud must have bound the committed recipe to the SAME generation
// id: a retry after a partially failed upload can desynchronize per-cloud
// id allocation, and surfacing that when it is created beats a
// mixed-snapshot restore failing later. RepairFile realigns a skewed cloud.
Status CheckGenerationLockstep(const std::vector<int>& clouds,
                               const std::vector<uint64_t>& bound_gens) {
  for (size_t i = 1; i < bound_gens.size(); ++i) {
    if (bound_gens[i] != bound_gens[0]) {
      return Status::Corruption(
          "generation id skew across clouds: cloud " + std::to_string(clouds[0]) +
          " committed generation " + std::to_string(bound_gens[0]) + " but cloud " +
          std::to_string(clouds[i]) + " committed " + std::to_string(bound_gens[i]) +
          "; repair the lagging cloud");
    }
  }
  return Status::Ok();
}

// Depth of the encode -> uploader broadcast pool: ~4x stream_batch_bytes of
// typical bundles, so encoding keeps producing while upload RPCs are on the
// wire, yet a stalled cloud caps client memory at a couple of batches.
size_t UploadPoolDepth(const ClientOptions& opts, const AontRsScheme& scheme) {
  size_t typical_secret = opts.fixed_chunking ? opts.fixed_chunk_size : opts.rabin.avg_size;
  size_t typical_share = std::max<size_t>(1, scheme.ShareSize(typical_secret));
  return std::max(opts.pipeline_queue_depth, 4 * opts.stream_batch_bytes / typical_share);
}

}  // namespace

CdstoreClient::CdstoreClient(std::vector<Transport*> transports, UserId user,
                             const ClientOptions& options)
    : transports_(std::move(transports)),
      user_(user),
      opts_(options),
      scheme_(MakeCaontRs(options.n, options.k, options.salt)),
      pipeline_(scheme_.get(), options.encode_threads),
      decode_pipeline_(scheme_.get(), options.decode_threads) {
  CHECK_EQ(transports_.size(), static_cast<size_t>(options.n));
  if (opts_.metrics != nullptr) {
    metrics_.encode_ns_per_mb =
        opts_.metrics->GetHistogram("cdstore_client_encode_ns_per_mb", {}, LatencyBucketsNs());
    metrics_.lane_failovers =
        opts_.metrics->GetCounter("cdstore_client_lane_failovers_total");
    metrics_.upload_stalls =
        opts_.metrics->GetCounter("cdstore_client_upload_pool_stalls_total");
    metrics_.upload_queue_depth =
        opts_.metrics->GetGauge("cdstore_client_upload_pool_occupancy");
    rpc_latency_slots_ = std::make_unique<std::atomic<Histogram*>[]>(
        transports_.size() * kNumMsgTypes);
  }
}

Result<Bytes> CdstoreClient::CallCloud(int cloud, const Bytes& frame) {
  Transport* t = transports_[cloud];
  MsgType type = PeekType(frame);
  size_t idx = static_cast<size_t>(type);
  if (idx >= kNumMsgTypes) {
    idx = 0;  // unknown types share the kError slot
    type = MsgType::kError;
  }
  // One span per RPC, named after it; inert unless a sampled trace is live
  // on this thread. When active the frame is wrapped in a kTracedRequest
  // envelope so the server's spans parent under this one; untraced frames
  // go out byte-identical to a tracing-free build.
  ScopedSpan rpc_span(opts_.tracer, RpcName(type));
  rpc_span.AnnotateKV("cloud", static_cast<uint64_t>(cloud));
  const Bytes* wire = &frame;
  Bytes traced;
  if (rpc_span.active()) {
    TraceContext ctx = rpc_span.context();
    traced = WrapTraced(TraceContextHeader{ctx.trace_id, ctx.span_id, 1}, frame);
    wire = &traced;
  }
  if (opts_.metrics == nullptr) {
    return t->Call(*wire);
  }
  // Registry lookups build label strings, which shows up as a few percent
  // on wire-free workloads, so the resolved histogram is cached per
  // (cloud, rpc-type) slot. The load/store race with a concurrent filler
  // is benign: both resolve the identical registry series.
  std::atomic<Histogram*>& slot =
      rpc_latency_slots_[static_cast<size_t>(cloud) * kNumMsgTypes + idx];
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    h = opts_.metrics->GetHistogram(
        "cdstore_client_rpc_latency_ns",
        {{"cloud", std::to_string(cloud)}, {"rpc", RpcName(type)}}, LatencyBucketsNs());
    slot.store(h, std::memory_order_release);
  }
  ScopedTimer timer(h);
  return t->Call(*wire);
}

template <class Reply, class Request>
Result<Reply> CdstoreClient::CallTyped(int cloud, const Request& request) {
  ASSIGN_OR_RETURN(Bytes frame, CallCloud(cloud, Encode(request)));
  RETURN_IF_ERROR(DecodeIfError(frame));
  Reply reply;
  RETURN_IF_ERROR(Decode(frame, &reply));
  return reply;
}

void CdstoreClient::CountCloud(const char* name, int cloud, uint64_t delta) {
  if (opts_.metrics == nullptr || delta == 0) {
    return;
  }
  opts_.metrics->GetCounter(name, {{"cloud", std::to_string(cloud)}})->Inc(delta);
}

std::unique_ptr<Chunker> CdstoreClient::MakeChunker() const {
  if (opts_.fixed_chunking) {
    return std::make_unique<FixedChunker>(opts_.fixed_chunk_size);
  }
  return std::make_unique<RabinChunker>(opts_.rabin);
}

Result<std::vector<Bytes>> CdstoreClient::PathKeys(const std::string& path_name) const {
  // Convergent dispersal of the pathname: deterministic, so the same path
  // always maps to the same per-cloud key, yet no single cloud learns the
  // path (§4.3 "for sensitive information, we encode and disperse it via
  // secret sharing").
  std::vector<Bytes> shares;
  RETURN_IF_ERROR(scheme_->Encode(BytesOf(path_name), &shares));
  return shares;
}

// --------------------------------------------------------------- session --

BackupSession::BackupSession(CdstoreClient* client, std::vector<int> clouds)
    : client_(client), clouds_(std::move(clouds)) {
  jobs_.reserve(clouds_.size());
  for (size_t i = 0; i < clouds_.size(); ++i) {
    // Single-slot queues: at most one file is in flight per lane, and a
    // writer is finished before the next OpenUpload, so Push never blocks.
    jobs_.push_back(std::make_unique<BoundedQueue<UploadWriter*>>(1));
  }
  uploaders_.reserve(clouds_.size());
  for (size_t i = 0; i < clouds_.size(); ++i) {
    uploaders_.emplace_back([this, i]() { UploaderLoop(i); });
  }
}

BackupSession::~BackupSession() {
  CHECK(!writer_open_.load()) << "UploadWriter must be finished or destroyed "
                                 "before its BackupSession";
  (void)Close();
}

void BackupSession::UploaderLoop(size_t lane) {
  // One file at a time: pop the next writer's job, stream its shares to
  // this lane's cloud, report the per-cloud status, go back to waiting.
  // The thread — and with it the transport connection state — persists
  // across every file of the session.
  while (auto writer = jobs_[lane]->Pop()) {
    UploadWriter* w = *writer;
    int cloud = clouds_[lane];
    // Adopt the file's trace on this lane thread: everything below — dedup
    // queries, transfer batches, the recipe put — parents under one
    // "uploader" span per cloud.
    ScopedTraceParent trace_parent(w->trace_.context());
    ScopedSpan lane_span(client_->opts_.tracer, "uploader");
    lane_span.AnnotateKV("cloud", static_cast<uint64_t>(cloud));
    Status st = client_->UploadLane(cloud, static_cast<int>(lane), w->path_keys_[cloud],
                                    &w->path_id_, w->path_name_len_, &w->file_size_,
                                    &w->upload_opts_, &w->pool_, &w->abort_, &w->file_stats_,
                                    &w->stats_mu_, &w->lane_generations_[lane]);
    w->cloud_promises_[lane].set_value(st);
  }
}

Result<std::unique_ptr<BackupSession::UploadWriter>> BackupSession::OpenUpload(
    const std::string& path_name, const UploadFileOptions& options) {
  if (closed_) {
    return Status::FailedPrecondition("OpenUpload on a closed session");
  }
  if (options.mode == PutFileMode::kPutGeneration && options.generation_id == 0) {
    return Status::InvalidArgument("kPutGeneration requires a generation id");
  }
  bool expected = false;
  if (!writer_open_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition(
        "another UploadWriter is still open in this session");
  }
  auto path_keys = client_->PathKeys(path_name);
  if (!path_keys.ok()) {
    writer_open_.store(false);
    return path_keys.status();
  }
  auto writer =
      std::unique_ptr<UploadWriter>(new UploadWriter(this, std::move(path_keys.value())));
  writer->upload_opts_ = options;  // before Push: lanes read it afterwards
  writer->path_id_ = client_->PathIdOf(path_name);
  writer->path_name_len_ = static_cast<uint32_t>(path_name.size());
  for (auto& q : jobs_) {
    q->Push(writer.get());
  }
  return writer;
}

Status BackupSession::Upload(const std::string& path_name, ConstByteSpan data,
                             UploadStats* stats, const UploadFileOptions& options) {
  ASSIGN_OR_RETURN(std::unique_ptr<UploadWriter> writer, OpenUpload(path_name, options));
  RETURN_IF_ERROR(writer->WritePinned(data));
  return writer->Finish(stats);
}

Status BackupSession::Close() {
  if (writer_open_.load()) {
    return Status::FailedPrecondition("Close with an open UploadWriter");
  }
  if (closed_) {
    return Status::Ok();
  }
  closed_ = true;
  for (auto& q : jobs_) {
    q->Close();
  }
  for (auto& t : uploaders_) {
    t.join();
  }
  return Status::Ok();
}

Result<std::unique_ptr<BackupSession>> CdstoreClient::OpenBackupSession() {
  std::vector<int> clouds(opts_.n);
  std::iota(clouds.begin(), clouds.end(), 0);
  return std::unique_ptr<BackupSession>(new BackupSession(this, std::move(clouds)));
}

// ---------------------------------------------------------- upload writer --

BackupSession::UploadWriter::UploadWriter(BackupSession* session, std::vector<Bytes> path_keys)
    : session_(session),
      chunker_(session->client_->MakeChunker()),
      pool_(UploadPoolDepth(session->client_->opts_, *session->client_->scheme_),
            static_cast<int>(session->clouds_.size())),
      path_keys_(std::move(path_keys)) {
  file_stats_.per_cloud.resize(session_->client_->opts_.n);
  pool_.BindMetrics(session_->client_->metrics_.upload_queue_depth,
                    session_->client_->metrics_.upload_stalls);
  lane_generations_.resize(session_->clouds_.size(), 0);
  cloud_promises_.resize(session_->clouds_.size());
  cloud_results_.reserve(cloud_promises_.size());
  for (auto& p : cloud_promises_) {
    cloud_results_.push_back(p.get_future());
  }
  // Sink runs on encode workers, serialized and in submission order; a Push
  // into the closed pool (every lane failed) is dropped, and each lane's
  // status surfaces at Finish.
  auto sink = [this](CodingPipeline::EncodedSecret bundle) {
    ++num_secrets_;
    for (const Bytes& s : bundle.shares) {
      logical_share_bytes_ += s.size();
    }
    pool_.Push(std::move(bundle));
  };
  // Root the file's trace before the stream exists so the encode workers
  // pick its context up at spawn.
  trace_.Start(session_->client_->opts_.tracer, "upload");
  stream_ = session_->client_->pipeline_.OpenStream(
      std::move(sink), session_->client_->opts_.pipeline_queue_depth,
      session_->client_->opts_.tracer, trace_.context());
}

BackupSession::UploadWriter::~UploadWriter() {
  if (finished_) {
    return;
  }
  // Abandoned mid-file: raise the abort flag so no lane commits a truncated
  // recipe, then drain the pipeline so the session's lanes return to idle.
  abort_.store(true, std::memory_order_relaxed);
  (void)stream_->Finish();
  file_size_ = bytes_written_;
  pool_.Close();
  for (auto& f : cloud_results_) {
    (void)f.get();
  }
  session_->writer_open_.store(false);
}

Status BackupSession::UploadWriter::SubmitChunks(ConstByteSpan data, bool pinned) {
  if (finished_) {
    return Status::FailedPrecondition("Write after Finish");
  }
  if (!submit_status_.ok()) {
    return submit_status_;
  }
  // One "chunk" span per Write call, under the file's trace root. Its
  // duration includes Submit backpressure, so a chunker stalled on the
  // pipeline is visible as a long chunk span.
  ScopedTraceParent trace_parent(trace_.context());
  ScopedSpan chunk_span(session_->client_->opts_.tracer, "chunk");
  chunk_span.AnnotateKV("bytes", data.size());
  // Chunks fully inside a pinned buffer travel zero-copy; everything else
  // (unpinned writes, chunker-internal straddling buffers) is copied into
  // the pipeline because the source dies before delivery.
  const uint8_t* base = data.data();
  const size_t size = data.size();
  auto chunk_sink = [&](ConstByteSpan c) {
    if (!submit_status_.ok()) {
      return;
    }
    bool in_buffer =
        pinned && !c.empty() && c.data() >= base && c.data() + c.size() <= base + size;
    submit_status_ =
        in_buffer ? stream_->Submit(c) : stream_->Submit(Bytes(c.begin(), c.end()));
  };
  chunker_->Update(data, chunk_sink);
  bytes_written_ += data.size();
  return submit_status_;
}

Status BackupSession::UploadWriter::Write(ConstByteSpan data) {
  return SubmitChunks(data, /*pinned=*/false);
}

Status BackupSession::UploadWriter::WritePinned(ConstByteSpan data) {
  return SubmitChunks(data, /*pinned=*/true);
}

Status BackupSession::UploadWriter::Finish(UploadStats* stats) {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  auto chunk_sink = [&](ConstByteSpan c) {
    if (!submit_status_.ok()) {
      return;
    }
    submit_status_ = stream_->Submit(Bytes(c.begin(), c.end()));
  };
  chunker_->Finish(chunk_sink);
  Status encode_status = stream_->Finish();
  double compute_s = compute_watch_.ElapsedSeconds();
  if (Histogram* h = session_->client_->metrics_.encode_ns_per_mb;
      h != nullptr && bytes_written_ > 0) {
    h->Observe(static_cast<uint64_t>(compute_s * 1e9 * (1 << 20) /
                                     static_cast<double>(bytes_written_)));
  }

  // The lanes read file_size_ only after draining the pool, and Close
  // provides the happens-before edge for this write.
  file_size_ = bytes_written_;
  // A failed encode must not look like a clean end-of-stream: the lanes
  // would otherwise drain and PutFile a truncated recipe (and on overwrite
  // replace a good file with it).
  if (!encode_status.ok() || !submit_status_.ok()) {
    abort_.store(true, std::memory_order_relaxed);
  }
  pool_.Close();
  std::vector<Status> results;
  results.reserve(cloud_results_.size());
  for (auto& f : cloud_results_) {
    results.push_back(f.get());
  }
  session_->writer_open_.store(false);
  // Every lane has resolved: the trace root now covers the whole file.
  trace_.End();

  RETURN_IF_ERROR(encode_status);
  RETURN_IF_ERROR(submit_status_);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return Status(results[i].code(), "cloud " + std::to_string(session_->clouds_[i]) +
                                           ": " + results[i].message());
    }
  }
  RETURN_IF_ERROR(CheckGenerationLockstep(session_->clouds_, lane_generations_));
  // The lanes are done (their futures resolved above); the lock is
  // uncontended and keeps the guarded access discipline uniform.
  MutexLock lock(stats_mu_);
  file_stats_.generation_id = lane_generations_.empty() ? 0 : lane_generations_[0];
  if (stats != nullptr) {
    file_stats_.logical_bytes = bytes_written_;
    file_stats_.num_secrets = num_secrets_;
    file_stats_.logical_share_bytes = logical_share_bytes_;
    // The overlapped chunk+encode wall time (includes stalls waiting on the
    // network through backpressure).
    file_stats_.chunk_encode_seconds = compute_s;
    MergeUploadStats(stats, file_stats_);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- upload --

Status CdstoreClient::Upload(const std::string& path_name, ConstByteSpan data,
                             UploadStats* stats, const UploadFileOptions& options) {
  // Thin wrapper: a one-file session. Chunking, encoding, dedup, transfer,
  // and stats are identical to any other session upload.
  ASSIGN_OR_RETURN(std::unique_ptr<BackupSession> session, OpenBackupSession());
  Status st = session->Upload(path_name, data, stats, options);
  Status close = session->Close();
  return st.ok() ? close : st;
}

// Streaming uploader lane (§4.6): consumes encoded shares in recipe order
// and interleaves dedup queries, batched transfers, and the final recipe
// put. Pending shares accumulate until stream_batch_bytes, then one FpQuery
// settles their dedup status and the unique ones join the transfer batch.
Status CdstoreClient::UploadLane(int cloud, int consumer, const Bytes& path_key,
                                 const Bytes* path_id, uint32_t path_name_len,
                                 const uint64_t* file_size, const UploadFileOptions* fopts,
                                 BroadcastQueue<CodingPipeline::EncodedSecret>* in,
                                 const std::atomic<bool>* abort_upload, UploadStats* stats,
                                 Mutex* stats_mu, uint64_t* bound_generation) {
  std::vector<RecipeEntry> recipe;
  std::unordered_set<Fingerprint, FingerprintHash> in_flight;
  uint64_t transferred = 0;
  uint64_t dup = 0;
  uint64_t rpcs = 0;

  // One transfer RPC rides the wire while the next batch is queried and
  // assembled: flush_batch hands the batch to a single async in-flight
  // slot and returns; the next flush (or the final drain) collects the
  // previous RPC's status first, so per-cloud transfers stay ordered and
  // at most one is outstanding.
  UploadSharesRequest batch;
  batch.user = user_;
  size_t batch_bytes = 0;
  std::future<Status> inflight;
  auto wait_inflight = [&]() -> Status {
    if (!inflight.valid()) {
      return Status::Ok();
    }
    return inflight.get();
  };
  auto flush_batch = [&]() -> Status {
    if (batch.shares.empty()) {
      return Status::Ok();
    }
    RETURN_IF_ERROR(wait_inflight());
    auto req = std::make_shared<UploadSharesRequest>(std::move(batch));
    batch.shares.clear();
    batch.user = user_;
    batch_bytes = 0;
    ++rpcs;
    inflight = std::async(std::launch::async, [this, cloud, req,
                                               ctx = CurrentTraceContext()]() -> Status {
      // The async hop loses the thread-local trace parent; re-install the
      // launcher's so the transfer RPC nests under this lane's span.
      ScopedTraceParent trace_parent(ctx);
      return CallTyped<UploadSharesReply>(cloud, *req).status();
    });
    return Status::Ok();
  };

  // Shares whose dedup status is still unknown; parallel to the recipe tail
  // starting at pending_base. Dedup queries are pipelined the same way as
  // transfers: the query RPC for one window rides the wire while the next
  // window accumulates. Windows are settled strictly in order, so the
  // in_flight bookkeeping (and therefore the dedup decisions and stats)
  // are identical to the fully synchronous protocol.
  struct QueryWindow {
    std::vector<Bytes> shares;
    std::vector<Fingerprint> fps;
    std::future<Result<FpQueryReply>> reply;
  };
  std::vector<Bytes> pending_shares;
  size_t pending_base = 0;
  size_t pending_bytes = 0;
  std::deque<QueryWindow> query_windows;
  // Stagger the first batch per cloud so the n uploaders' RPCs interleave
  // instead of all sleeping on the wire simultaneously (which would leave
  // nothing runnable to overlap with); later batches inherit the offset.
  size_t next_flush_bytes =
      opts_.stream_batch_bytes * (static_cast<size_t>(consumer) + 1) / transports_.size();
  if (next_flush_bytes == 0) {
    next_flush_bytes = opts_.stream_batch_bytes;
  }

  auto start_query = [&]() {
    if (pending_shares.empty()) {
      return;
    }
    QueryWindow w;
    w.shares = std::move(pending_shares);
    w.fps.reserve(w.shares.size());
    for (size_t j = 0; j < w.shares.size(); ++j) {
      w.fps.push_back(recipe[pending_base + j].fp);
    }
    FpQueryRequest query;
    query.user = user_;
    query.fps = w.fps;
    ++rpcs;
    w.reply = std::async(std::launch::async, [this, cloud, query = std::move(query),
                                              ctx = CurrentTraceContext()]() {
      ScopedTraceParent trace_parent(ctx);
      return CallTyped<FpQueryReply>(cloud, query);
    });
    query_windows.push_back(std::move(w));
    pending_shares.clear();
    pending_base = recipe.size();
    pending_bytes = 0;
  };

  // Settles the oldest outstanding query window: unique shares join the
  // transfer batch.
  auto settle_query = [&]() -> Status {
    QueryWindow w = std::move(query_windows.front());
    query_windows.pop_front();
    ASSIGN_OR_RETURN(FpQueryReply reply, w.reply.get());
    if (reply.duplicate.size() != w.fps.size()) {
      return Status::Internal("fp query reply arity mismatch");
    }
    for (size_t j = 0; j < w.shares.size(); ++j) {
      if (reply.duplicate[j] != 0 || in_flight.count(w.fps[j]) > 0) {
        ++dup;
        continue;
      }
      in_flight.insert(w.fps[j]);
      size_t share_size = w.shares[j].size();
      batch.shares.push_back(std::move(w.shares[j]));
      batch_bytes += share_size;
      transferred += share_size;
      if (batch_bytes >= opts_.stream_batch_bytes) {
        RETURN_IF_ERROR(flush_batch());
      }
    }
    return Status::Ok();
  };

  Status st;
  while (CodingPipeline::EncodedSecret* bundle = in->Peek(consumer)) {
    // Each consumer touches only its own cloud's slots of the shared
    // bundle, so moving them out is race-free.
    RecipeEntry e;
    e.fp = std::move(bundle->fps[cloud]);
    e.secret_size = bundle->secret_size;
    e.share_size = static_cast<uint32_t>(bundle->shares[cloud].size());
    pending_bytes += bundle->shares[cloud].size();
    pending_shares.push_back(std::move(bundle->shares[cloud]));
    recipe.push_back(std::move(e));
    in->Advance(consumer);
    if (pending_bytes >= next_flush_bytes) {
      next_flush_bytes = opts_.stream_batch_bytes;
      if (!query_windows.empty()) {
        st = settle_query();
        if (!st.ok()) {
          // Stop gating the encode stage: this cloud abandons the stream.
          in->Detach(consumer);
          return st;
        }
      }
      start_query();
    }
  }

  // The stream was aborted (encode failure or the writer was abandoned):
  // the recipe is truncated, so finalizing would commit a corrupt file —
  // and on an overwrite would replace a good one. Settle in-flight RPCs
  // and bail out.
  if (abort_upload != nullptr && abort_upload->load(std::memory_order_relaxed)) {
    (void)wait_inflight();
    in->Detach(consumer);
    return Status::Internal("upload aborted: encode stream failed");
  }

  start_query();
  while (st.ok() && !query_windows.empty()) {
    st = settle_query();
  }
  if (st.ok()) {
    st = flush_batch();
  }
  if (st.ok()) {
    st = wait_inflight();
  }
  if (st.ok()) {
    PutFileRequest put;
    put.user = user_;
    put.path_key = path_key;
    put.path_id = *path_id;
    put.path_name_len = path_name_len;
    put.file_size = *file_size;  // written by the writer before pool close
    put.mode = fopts->mode;
    put.generation_id = fopts->generation_id;
    put.timestamp_ms = fopts->timestamp_ms;
    put.recipe = std::move(recipe);
    ++rpcs;
    auto put_reply = CallTyped<PutFileReply>(cloud, put);
    st = put_reply.status();
    if (st.ok() && bound_generation != nullptr) {
      *bound_generation = put_reply.value().generation_id;
    }
  }
  if (!st.ok()) {
    in->Detach(consumer);
    return st;
  }
  if (stats != nullptr) {
    MutexLock lock(*stats_mu);
    stats->transferred_share_bytes += transferred;
    stats->intra_duplicate_shares += dup;
    CloudUploadStats& slot = CloudSlot(stats, cloud);
    slot.transferred_share_bytes += transferred;
    slot.intra_duplicate_shares += dup;
    slot.rpcs += rpcs;
  }
  // Dedup hit rate per cloud = hits / (hits + misses); misses are the
  // shares actually transferred.
  CountCloud("cdstore_client_dedup_hits_total", cloud, dup);
  CountCloud("cdstore_client_dedup_misses_total", cloud, in_flight.size());
  CountCloud("cdstore_client_transferred_share_bytes_total", cloud, transferred);
  return Status::Ok();
}

// -------------------------------------------------------------- download --

Result<GetFileReply> CdstoreClient::FetchRecipe(int cloud, const Bytes& path_key,
                                                uint64_t generation) {
  GetFileRequest req;
  req.user = user_;
  req.path_key = path_key;
  req.generation = generation;
  return CallTyped<GetFileReply>(cloud, req);
}

Status CdstoreClient::BruteForceSecret(const std::vector<Bytes>& path_keys,
                                       uint64_t generation, size_t s, size_t num_secrets,
                                       const std::vector<int>& have_ids,
                                       std::vector<Bytes> have_shares, size_t secret_size,
                                       Bytes* out) {
  // Fetch the remaining clouds' copy of this secret's share and brute-force
  // over k-subsets (§3.2). Rare corruption path: RPCs here are not charged
  // to the per-cloud stats.
  std::vector<int> all_ids = have_ids;
  std::vector<Bytes> all_shares = std::move(have_shares);
  for (int i = 0; i < opts_.n; ++i) {
    if (std::find(all_ids.begin(), all_ids.end(), i) != all_ids.end()) {
      continue;
    }
    auto recipe = FetchRecipe(i, path_keys[i], generation);
    if (!recipe.ok() || recipe.value().recipe.size() != num_secrets) {
      continue;
    }
    GetSharesRequest req;
    req.user = user_;
    req.fps = {recipe.value().recipe[s].fp};
    auto extra = CallTyped<GetSharesReply>(i, req);
    if (!extra.ok() || extra.value().shares.size() != 1) {
      continue;
    }
    all_ids.push_back(i);
    all_shares.push_back(std::move(extra.value().shares[0]));
  }
  return DecodeWithBruteForce(*scheme_, all_ids, all_shares, secret_size, out);
}

Status CdstoreClient::Download(const std::string& path_name, ByteSink& sink,
                               DownloadStats* stats, uint64_t generation) {
  ASSIGN_OR_RETURN(std::vector<Bytes> path_keys, PathKeys(path_name));
  TraceRequest trace(opts_.tracer, "download");
  ScopedTraceParent trace_parent(trace.context());
  return DownloadPipelined(path_keys, generation, sink, stats);
}

Result<Bytes> CdstoreClient::Download(const std::string& path_name, DownloadStats* stats,
                                      uint64_t generation) {
  Bytes data;
  BufferByteSink sink(&data);
  RETURN_IF_ERROR(Download(path_name, sink, stats, generation));
  return data;
}

// Pipelined restore (§4.6 applied to the download direction): one fetch
// lane per chosen cloud streams GetShares batches while the decode workers
// reconstruct earlier batches and the sink receives secrets in recipe
// order. A lane whose cloud fails mid-stream recruits a spare cloud (one
// with a matching recipe) and resumes from the batch that failed, so a
// flaky cloud degrades the restore instead of aborting it.
Status CdstoreClient::DownloadPipelined(const std::vector<Bytes>& path_keys,
                                        uint64_t generation, ByteSink& sink,
                                        DownloadStats* stats) {
  const int n = opts_.n;
  const size_t k = static_cast<size_t>(opts_.k);

  struct Lane {
    int cloud = -1;
    std::vector<RecipeEntry> recipe;
  };
  // One cloud's share spans for one batch; the frame owns the bytes.
  struct Delivery {
    int cloud = -1;
    Bytes frame;
    std::vector<ConstByteSpan> shares;
  };
  struct Ctx {
    Mutex mu;
    CondVar cv;
    std::vector<std::vector<Delivery>> slots GUARDED_BY(mu);  // per batch, complete at k
    size_t next_decode GUARDED_BY(mu) = 0;
    bool failed GUARDED_BY(mu) = false;
    Status fail_status GUARDED_BY(mu);
    int next_candidate GUARDED_BY(mu) = 0;  // next cloud id to probe for a recipe
    std::vector<uint64_t> rpcs GUARDED_BY(mu);  // per cloud
  } ctx;
  {
    MutexLock lock(ctx.mu);
    ctx.rpcs.assign(n, 0);
  }

  // 1. Recruit k fetch lanes: the first k clouds with a usable recipe.
  std::vector<Lane> lanes;
  uint64_t file_size = 0;
  size_t num_secrets = 0;
  uint64_t resolved_gen = generation;  // pinned by the first admitted cloud
  bool have_meta = false;
  Status last_error = Status::Unavailable("no cloud reachable");
  auto admit = [&](int c, Result<GetFileReply> reply) {
    if (!reply.ok()) {
      last_error = reply.status();
      return;
    }
    if (!have_meta) {
      file_size = reply.value().file_size;
      num_secrets = reply.value().recipe.size();
      resolved_gen = reply.value().generation_id;
      have_meta = true;
    } else if (reply.value().generation_id != resolved_gen) {
      // This cloud's LATEST differs (e.g. an interrupted backup committed
      // on only some clouds), but it may still hold the resolved
      // generation: re-probe with the generation pinned before giving the
      // cloud up — a restore must not mix snapshots, yet a mere latest
      // skew must not cost a healthy lane.
      {
        MutexLock lock(ctx.mu);
        ++ctx.rpcs[c];
      }
      reply = FetchRecipe(c, path_keys[c], resolved_gen);
      if (!reply.ok()) {
        last_error = reply.status();  // availability, not skew: keep it honest
        return;
      }
      if (reply.value().generation_id != resolved_gen) {
        last_error = Status::Corruption("generation mismatch across clouds");
        return;
      }
      if (reply.value().recipe.size() != num_secrets) {
        last_error = Status::Corruption("recipe length mismatch across clouds");
        return;
      }
    } else if (reply.value().recipe.size() != num_secrets) {
      last_error = Status::Corruption("recipe length mismatch across clouds");
      return;
    }
    Lane lane;
    lane.cloud = c;
    lane.recipe = std::move(reply.value().recipe);
    lanes.push_back(std::move(lane));
  };
  // The first k probes fly concurrently (the common all-healthy case costs
  // one RTT of startup instead of k); replies are admitted in cloud order,
  // so lane choice and metadata source stay deterministic. Replacements
  // for failed probes fall back to sequential probing.
  {
    const int first_wave = std::min(static_cast<int>(k), n);
    std::vector<std::future<Result<GetFileReply>>> probes;
    probes.reserve(first_wave);
    for (int c = 0; c < first_wave; ++c) {
      {
        MutexLock lock(ctx.mu);
        ++ctx.rpcs[c];
      }
      probes.push_back(std::async(std::launch::async,
                                  [this, &path_keys, generation, c,
                                   ctx = CurrentTraceContext()] {
                                    ScopedTraceParent trace_parent(ctx);
                                    return FetchRecipe(c, path_keys[c], generation);
                                  }));
    }
    {
      MutexLock lock(ctx.mu);
      ctx.next_candidate = first_wave;
    }
    for (int c = 0; c < first_wave; ++c) {
      admit(c, probes[c].get());
    }
  }
  while (lanes.size() < k) {
    int c;
    {
      MutexLock lock(ctx.mu);
      if (ctx.next_candidate >= n) {
        break;
      }
      c = ctx.next_candidate++;
      ++ctx.rpcs[c];
    }
    // Replacement probes pin the already-resolved generation explicitly,
    // so a cloud whose latest differs still serves the right snapshot.
    admit(c, FetchRecipe(c, path_keys[c], have_meta ? resolved_gen : generation));
  }
  if (lanes.size() < k) {
    return Status(last_error.code(),
                  "fewer than k clouds available: " + last_error.message());
  }

  // 2. Batch boundaries (identical across clouds: share sizes are a pure
  // function of the secret size).
  std::vector<std::pair<size_t, size_t>> batches;
  std::vector<size_t> secret_sizes(num_secrets);
  {
    size_t begin = 0;
    size_t acc = 0;
    for (size_t s = 0; s < num_secrets; ++s) {
      secret_sizes[s] = lanes[0].recipe[s].secret_size;
      acc += lanes[0].recipe[s].share_size;
      if (acc >= opts_.download_batch_bytes) {
        batches.emplace_back(begin, s + 1);
        begin = s + 1;
        acc = 0;
      }
    }
    if (begin < num_secrets) {
      batches.emplace_back(begin, num_secrets);
    }
  }
  {
    MutexLock lock(ctx.mu);
    ctx.slots.resize(batches.size());
  }

  // Called by a lane whose cloud failed: claims the next untried cloud,
  // verifies its recipe, and retargets the lane. Returns false (and fails
  // the download) when no spare cloud is left.
  auto recruit_spare = [&](Lane* lane, const Status& cause) -> bool {
    MutexLock lock(ctx.mu);
    while (!ctx.failed && ctx.next_candidate < n) {
      int c = ctx.next_candidate++;
      ++ctx.rpcs[c];
      lock.Unlock();
      auto reply = FetchRecipe(c, path_keys[c], resolved_gen);
      if (reply.ok() && reply.value().generation_id == resolved_gen &&
          reply.value().recipe.size() == num_secrets) {
        lane->cloud = c;
        lane->recipe = std::move(reply.value().recipe);
        if (metrics_.lane_failovers != nullptr) {
          metrics_.lane_failovers->Inc();
        }
        return true;
      }
      lock.Lock();
    }
    if (!ctx.failed) {
      ctx.failed = true;
      ctx.fail_status = Status(
          cause.code(), "cloud fetch failed with no spare cloud left: " + cause.message());
    }
    lock.Unlock();
    ctx.cv.SignalAll();
    return false;
  };

  // The lane threads inherit the download trace explicitly (thread-locals
  // do not cross std::thread); one "fetch_lane" span per lane covers every
  // batch it streams, including failover re-fetches.
  TraceContext dl_ctx = CurrentTraceContext();
  auto lane_worker = [&](Lane lane) {
    ScopedTraceParent trace_parent(dl_ctx);
    ScopedSpan lane_span(opts_.tracer, "fetch_lane");
    lane_span.AnnotateKV("cloud", static_cast<uint64_t>(lane.cloud));
    for (size_t b = 0; b < batches.size();) {
      {
        // Fetch-ahead window: lanes stall once kFetchAhead batches are
        // buffered beyond the decoder, bounding restore memory.
        MutexLock lock(ctx.mu);
        ctx.cv.Wait(ctx.mu, [&]() REQUIRES(ctx.mu) {
          return ctx.failed || b < ctx.next_decode + kFetchAhead;
        });
        if (ctx.failed) {
          return;
        }
        ++ctx.rpcs[lane.cloud];
      }
      auto [begin, end] = batches[b];
      GetSharesRequest req;
      req.user = user_;
      req.fps.reserve(end - begin);
      for (size_t s = begin; s < end; ++s) {
        req.fps.push_back(lane.recipe[s].fp);
      }
      Delivery d;
      d.cloud = lane.cloud;
      Status st;
      auto frame = CallCloud(lane.cloud, Encode(req));
      if (!frame.ok()) {
        st = frame.status();
      } else {
        st = DecodeIfError(frame.value());
        if (st.ok()) {
          d.frame = std::move(frame.value());
          st = DecodeShareSpans(d.frame, &d.shares);
          if (st.ok() && d.shares.size() != end - begin) {
            st = Status::Internal("share reply arity mismatch");
          }
        }
      }
      if (!st.ok()) {
        if (!recruit_spare(&lane, st)) {
          return;
        }
        continue;  // retry this batch on the replacement cloud
      }
      bool complete;
      {
        MutexLock lock(ctx.mu);
        ctx.slots[b].push_back(std::move(d));
        complete = ctx.slots[b].size() == k;
      }
      if (complete) {
        ctx.cv.SignalAll();
      }
      ++b;
    }
  };

  std::vector<int> initial_clouds;
  initial_clouds.reserve(lanes.size());
  for (const Lane& lane : lanes) {
    initial_clouds.push_back(lane.cloud);
  }
  std::vector<std::thread> lane_threads;
  lane_threads.reserve(lanes.size());
  for (Lane& lane : lanes) {
    lane_threads.emplace_back(lane_worker, std::move(lane));
  }

  // 3. Decode loop (this thread): waits for each batch to be complete,
  // decodes it on the decode workers, and streams the secrets to the sink.
  Status result;
  uint64_t delivered = 0;
  uint64_t received = 0;
  std::vector<uint64_t> received_per_cloud(n, 0);
  // Normally filled from batch deliveries; for a zero-batch (empty) file,
  // seeded with the recruited lanes, which did serve the (empty) restore.
  std::set<int> clouds_used;
  if (batches.empty()) {
    clouds_used.insert(initial_clouds.begin(), initial_clouds.end());
  }
  int brute_forced = 0;
  for (size_t b = 0; b < batches.size() && result.ok(); ++b) {
    std::vector<Delivery> batch;
    {
      MutexLock lock(ctx.mu);
      ctx.cv.Wait(ctx.mu, [&]() REQUIRES(ctx.mu) {
        return ctx.failed || ctx.slots[b].size() == k;
      });
      if (ctx.slots[b].size() < k) {
        result = ctx.fail_status;
        break;
      }
      batch = std::move(ctx.slots[b]);
      ctx.slots[b].clear();
    }
    auto [begin, end] = batches[b];
    size_t count = end - begin;
    std::vector<int> ids;
    ids.reserve(batch.size());
    for (const Delivery& d : batch) {
      ids.push_back(d.cloud);
      clouds_used.insert(d.cloud);
    }
    std::vector<std::vector<int>> all_ids(count, ids);
    std::vector<std::vector<ConstByteSpan>> per_secret(count);
    std::vector<size_t> sizes(count);
    for (size_t j = 0; j < count; ++j) {
      per_secret[j].reserve(batch.size());
      for (const Delivery& d : batch) {
        per_secret[j].push_back(d.shares[j]);
        received += d.shares[j].size();
        received_per_cloud[d.cloud] += d.shares[j].size();
      }
      sizes[j] = secret_sizes[begin + j];
    }
    std::vector<Bytes> secrets;
    Status decode_status;
    {
      ScopedSpan decode_span(opts_.tracer, "decode_batch");
      decode_span.AnnotateKV("secrets", count);
      decode_status = decode_pipeline_.DecodeAll(all_ids, per_secret, sizes, &secrets);
    }
    if (!decode_status.ok()) {
      // Per-secret fallback: retry alone, then brute-force with the other
      // clouds' copies (§3.2 corrupted-share recovery).
      for (size_t j = 0; j < count && result.ok(); ++j) {
        Bytes out;
        if (scheme_->DecodeSpans(ids, per_secret[j], sizes[j], &out).ok()) {
          secrets[j] = std::move(out);
          continue;
        }
        std::vector<Bytes> have;
        have.reserve(per_secret[j].size());
        for (ConstByteSpan s : per_secret[j]) {
          have.emplace_back(s.begin(), s.end());
        }
        result = BruteForceSecret(path_keys, resolved_gen, begin + j, num_secrets, ids,
                                  std::move(have), sizes[j], &secrets[j]);
        ++brute_forced;
      }
      if (!result.ok()) {
        break;
      }
    }
    for (const Bytes& s : secrets) {
      delivered += s.size();
      result = sink.Append(s);
      if (!result.ok()) {
        break;
      }
    }
    {
      MutexLock lock(ctx.mu);
      ctx.next_decode = b + 1;
      if (!result.ok() && !ctx.failed) {
        ctx.failed = true;
        ctx.fail_status = result;
      }
    }
    ctx.cv.SignalAll();
  }

  {
    MutexLock lock(ctx.mu);
    if (!result.ok() && !ctx.failed) {
      ctx.failed = true;
      ctx.fail_status = result;
    }
    if (!ctx.failed) {
      ctx.next_decode = batches.size();
    }
  }
  ctx.cv.SignalAll();
  for (auto& t : lane_threads) {
    t.join();
  }
  RETURN_IF_ERROR(result);
  if (delivered != file_size) {
    return Status::Corruption("restored size mismatch");
  }
  if (stats != nullptr) {
    stats->received_share_bytes += received;
    stats->num_secrets += num_secrets;
    stats->brute_force_recoveries += brute_forced;
    stats->clouds_used.assign(clouds_used.begin(), clouds_used.end());
    // Lanes are joined; the lock is uncontended and keeps the guarded
    // access discipline uniform.
    MutexLock lock(ctx.mu);
    for (int c = 0; c < n; ++c) {
      if (ctx.rpcs[c] == 0 && received_per_cloud[c] == 0) {
        continue;
      }
      CloudDownloadStats& slot = CloudSlot(stats, c);
      slot.rpcs += ctx.rpcs[c];
      slot.received_share_bytes += received_per_cloud[c];
    }
  }
  return Status::Ok();
}

// ------------------------- versions, retention, delete & repair --

Status CdstoreClient::DeleteFile(const std::string& path_name) {
  ASSIGN_OR_RETURN(std::vector<Bytes> path_keys, PathKeys(path_name));
  Status first_error;
  for (int i = 0; i < opts_.n; ++i) {
    DeleteFileRequest req;
    req.user = user_;
    req.path_key = path_keys[i];
    Status st = CallTyped<DeleteFileReply>(i, req).status();
    if (!st.ok() && first_error.ok()) {
      first_error = st;
    }
  }
  return first_error;
}

Result<std::vector<VersionInfo>> CdstoreClient::ListVersions(const std::string& path_name,
                                                             int exclude_cloud) {
  ASSIGN_OR_RETURN(std::vector<Bytes> path_keys, PathKeys(path_name));
  Status last_error = Status::Unavailable("no cloud reachable");
  for (int i = 0; i < opts_.n; ++i) {
    if (i == exclude_cloud) {
      continue;
    }
    ListVersionsRequest req;
    req.user = user_;
    req.path_key = path_keys[i];
    auto reply = CallTyped<ListVersionsReply>(i, req);
    if (!reply.ok()) {
      // Keep probing: a NotFound here may be one cloud's lost index, not
      // the path's absence. If EVERY cloud says NotFound, that status is
      // what the caller receives.
      last_error = reply.status();
      continue;
    }
    return std::move(reply.value().versions);
  }
  return last_error;
}

Status CdstoreClient::DeleteVersion(const std::string& path_name, uint64_t generation) {
  ASSIGN_OR_RETURN(std::vector<Bytes> path_keys, PathKeys(path_name));
  Status first_error;
  for (int i = 0; i < opts_.n; ++i) {
    DeleteVersionRequest req;
    req.user = user_;
    req.path_key = path_keys[i];
    req.generation_id = generation;
    Status st = CallTyped<DeleteVersionReply>(i, req).status();
    if (!st.ok() && first_error.ok()) {
      first_error = st;
    }
  }
  return first_error;
}

Result<ApplyRetentionReply> CdstoreClient::ApplyRetention(const std::string& path_name,
                                                          const RetentionPolicy& policy) {
  ASSIGN_OR_RETURN(std::vector<Bytes> path_keys, PathKeys(path_name));
  Status first_error;
  ApplyRetentionReply summary;
  bool have_summary = false;
  for (int i = 0; i < opts_.n; ++i) {
    ApplyRetentionRequest req;
    req.user = user_;
    req.path_key = path_keys[i];
    req.policy = policy;
    auto reply = CallTyped<ApplyRetentionReply>(i, req);
    if (!reply.ok()) {
      if (first_error.ok()) {
        first_error = reply.status();
      }
    } else if (!have_summary) {
      summary = std::move(reply.value());
      have_summary = true;
    }
  }
  RETURN_IF_ERROR(first_error);
  if (!have_summary) {
    return Status::Unavailable("no cloud applied the retention policy");
  }
  return summary;
}

// ------------------------------------------- namespace control plane --

Bytes CdstoreClient::PathIdOf(const std::string& path_name) const {
  // Domain-separated salted hash: depends only on the deployment salt and
  // the cleartext name, so every cloud stores the same id for the same
  // path and a client can match one path's listing entries across clouds.
  // The embedded NUL terminator of the literal separates the domain tag
  // from the name, so no (salt, name) pair collides across domains.
  static const char kDomain[] = "cdstore:path-id";
  Bytes input;
  input.reserve(opts_.salt.size() + sizeof(kDomain) + path_name.size());
  input.insert(input.end(), opts_.salt.begin(), opts_.salt.end());
  input.insert(input.end(), kDomain, kDomain + sizeof(kDomain));
  input.insert(input.end(), path_name.begin(), path_name.end());
  return Sha256::Hash(input);
}

Result<ListPathsReply> CdstoreClient::ListPathsPage(int cloud, ConstByteSpan cursor,
                                                    uint32_t max_entries) {
  if (cloud < 0 || cloud >= opts_.n) {
    return Status::InvalidArgument("cloud out of range");
  }
  ListPathsRequest req;
  req.user = user_;
  req.cursor.assign(cursor.begin(), cursor.end());
  req.max_entries = max_entries;
  return CallTyped<ListPathsReply>(cloud, req);
}

Result<NamespaceListing> CdstoreClient::ListPaths(uint32_t page_size) {
  // Names were dispersed at backup time (§4.3), so reconstructing the
  // namespace takes k clouds: page through each cloud's listing, match
  // entries across clouds by path_id, then decode each name from its k
  // shares. Clouds beyond the first k are only consulted when an earlier
  // one is unreachable.
  struct Candidate {
    std::vector<int> ids;
    std::vector<Bytes> shares;
    uint32_t name_len = 0;
    PathInfo first_info;
  };
  std::map<Bytes, Candidate> by_id;
  int clouds_listed = 0;
  Status last_error = Status::Unavailable("no cloud reachable");
  for (int c = 0; c < opts_.n && clouds_listed < opts_.k; ++c) {
    std::vector<PathInfo> cloud_paths;
    Bytes cursor;
    bool failed = false;
    while (true) {
      auto page = ListPathsPage(c, cursor, page_size);
      if (!page.ok()) {
        last_error = page.status();
        failed = true;
        break;
      }
      for (PathInfo& p : page.value().paths) {
        cloud_paths.push_back(std::move(p));
      }
      cursor = page.value().next_cursor;
      if (cursor.empty()) {
        break;
      }
    }
    if (failed) {
      continue;
    }
    ++clouds_listed;
    for (PathInfo& p : cloud_paths) {
      Candidate& cand = by_id[p.path_id];
      if (cand.ids.empty()) {
        cand.name_len = p.name_len;
        cand.first_info = p;
      }
      cand.ids.push_back(c);
      cand.shares.push_back(std::move(p.name_share));
    }
  }
  if (clouds_listed < opts_.k) {
    return Status(last_error.code(),
                  "namespace enumeration needs k=" + std::to_string(opts_.k) +
                      " clouds, got " + std::to_string(clouds_listed) + ": " +
                      last_error.message());
  }
  NamespaceListing out;
  for (auto& [path_id, cand] : by_id) {
    // A path id fewer than k clouds list (a cloud dropped it) cannot be
    // decoded at all.
    if (cand.ids.size() < static_cast<size_t>(opts_.k)) {
      ++out.unnamed_paths;
      continue;
    }
    Bytes name_bytes;
    Status st = scheme_->Decode(cand.ids, cand.shares, cand.name_len, &name_bytes);
    std::string name = st.ok() ? StringOf(name_bytes) : std::string();
    // End-to-end check: the decoded name must hash back to the id the
    // entries were matched under, or a cloud served a cross-wired share.
    if (!st.ok() || PathIdOf(name) != path_id) {
      ++out.unnamed_paths;
      continue;
    }
    NamespaceEntry e;
    e.path_name = std::move(name);
    e.path_id = path_id;
    e.latest_generation = cand.first_info.latest_generation;
    e.generation_count = cand.first_info.generation_count;
    e.latest_timestamp_ms = cand.first_info.latest_timestamp_ms;
    e.latest_logical_bytes = cand.first_info.latest_logical_bytes;
    out.entries.push_back(std::move(e));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const NamespaceEntry& a, const NamespaceEntry& b) {
              return a.path_name < b.path_name;
            });
  return out;
}

Result<ApplyRetentionNamespaceReply> CdstoreClient::ApplyRetentionNamespace(
    const RetentionPolicy& policy, uint32_t page_size) {
  Status first_error;
  ApplyRetentionNamespaceReply summary;
  bool have_summary = false;
  for (int i = 0; i < opts_.n; ++i) {
    ApplyRetentionNamespaceRequest req;
    req.user = user_;
    req.policy = policy;
    req.page_size = page_size;
    auto reply = CallTyped<ApplyRetentionNamespaceReply>(i, req);
    if (!reply.ok()) {
      if (first_error.ok()) {
        first_error = reply.status();
      }
    } else if (!have_summary) {
      summary = std::move(reply.value());
      have_summary = true;
    }
  }
  RETURN_IF_ERROR(first_error);
  if (!have_summary) {
    return Status::Unavailable("no cloud applied the retention sweep");
  }
  return summary;
}

namespace {

// Counts restored bytes on their way to the caller's sink.
class CountingByteSink : public ByteSink {
 public:
  CountingByteSink(ByteSink* inner, uint64_t* counter) : inner_(inner), counter_(counter) {}
  Status Append(ConstByteSpan data) override {
    *counter_ += data.size();
    return inner_->Append(data);
  }

 private:
  ByteSink* inner_;
  uint64_t* counter_;
};

}  // namespace

Result<RestoreNamespaceStats> CdstoreClient::RestoreNamespace(
    const RestoreSelector& selector, const RestoreSinkFactory& sink_factory) {
  ASSIGN_OR_RETURN(NamespaceListing listing, ListPaths());
  RestoreNamespaceStats out;
  // Paths whose names cannot be resolved cannot be restored; they are
  // reported (never silently dropped) so the caller can tell a complete
  // restore from one with holes.
  out.files_unnamed = listing.unnamed_paths;
  for (const NamespaceEntry& entry : listing.entries) {
    // Resolve the point-in-time generation. 0 selects the latest; with an
    // as-of timestamp the newest generation at or before it wins, and a
    // path born after the point is skipped — it did not exist in the
    // namespace being reproduced.
    uint64_t generation = 0;
    if (selector.as_of_ms != 0) {
      ASSIGN_OR_RETURN(std::vector<VersionInfo> versions, ListVersions(entry.path_name));
      for (const VersionInfo& v : versions) {
        if (v.timestamp_ms <= selector.as_of_ms && v.generation_id > generation) {
          generation = v.generation_id;
        }
      }
      if (generation == 0) {
        ++out.files_skipped;
        continue;
      }
    }
    ASSIGN_OR_RETURN(std::unique_ptr<ByteSink> sink, sink_factory(entry, generation));
    if (sink == nullptr) {
      ++out.files_skipped;
      continue;
    }
    // Each file streams through the same pipelined download path a
    // standalone Download uses — per-cloud fetch lanes overlapping the
    // client's persistent decode workers — so namespace restores are
    // byte-identical to per-file restores by construction.
    uint64_t file_bytes = 0;
    CountingByteSink counting(sink.get(), &file_bytes);
    RETURN_IF_ERROR(Download(entry.path_name, counting, /*stats=*/nullptr, generation));
    RestoredPath rp;
    rp.path_name = entry.path_name;
    rp.generation = generation == 0 ? entry.latest_generation : generation;
    rp.bytes = file_bytes;
    out.restored.push_back(std::move(rp));
    ++out.files_restored;
    out.bytes_restored += file_bytes;
  }
  return out;
}

Status CdstoreClient::RepairFile(const std::string& path_name, int target_cloud,
                                 uint64_t generation) {
  if (target_cloud < 0 || target_cloud >= opts_.n) {
    return Status::InvalidArgument("target cloud out of range");
  }
  // Resolve the generation's identity (id + timestamp) from a healthy
  // cloud so the repaired copy lands under the SAME id: generation ids
  // must stay in lockstep across clouds for selectors to keep working.
  // The target cloud is excluded as a source — its (possibly stale or
  // lost) index is exactly what is being repaired.
  ASSIGN_OR_RETURN(std::vector<VersionInfo> versions,
                   ListVersions(path_name, /*exclude_cloud=*/target_cloud));
  const VersionInfo* info = nullptr;
  if (generation == 0) {
    if (!versions.empty()) {
      info = &versions.back();
    }
  } else {
    for (const VersionInfo& v : versions) {
      if (v.generation_id == generation) {
        info = &v;
        break;
      }
    }
  }
  if (info == nullptr) {
    return Status::NotFound("generation " + std::to_string(generation) + " not found");
  }
  // Stream the restore from the surviving clouds straight into a
  // single-cloud session writer: fetch, decode, re-chunk, re-encode, and
  // re-upload all overlap, and no full copy of the file exists client-side.
  // Re-chunking the same byte stream reproduces the original secrets, so
  // the target's recipe lines up with the other clouds'.
  UploadFileOptions fopts;
  fopts.mode = PutFileMode::kPutGeneration;
  fopts.generation_id = info->generation_id;
  fopts.timestamp_ms = info->timestamp_ms;
  auto session =
      std::unique_ptr<BackupSession>(new BackupSession(this, {target_cloud}));
  auto writer = session->OpenUpload(path_name, fopts);
  if (!writer.ok()) {
    (void)session->Close();
    return writer.status();
  }
  Status download_status =
      Download(path_name, *writer.value(), /*stats=*/nullptr, info->generation_id);
  Status st = download_status.ok() ? writer.value()->Finish() : download_status;
  writer.value().reset();  // aborts cleanly if Finish was skipped
  Status close = session->Close();
  return st.ok() ? close : st;
}

}  // namespace cdstore
