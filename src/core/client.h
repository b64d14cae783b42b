// The CDStore client (§4): chunks a backup stream into secrets, encodes
// each secret into n shares with convergent dispersal (CAONT-RS), performs
// intra-user deduplication against each cloud's server, uploads unique
// shares in batches, and restores files from any k clouds — falling back to
// other clouds and brute-force subset decoding when shares are unavailable
// or corrupted.
//
// The client API is session-based and streaming in both directions:
//
//   - OpenBackupSession() starts a BackupSession whose encode workers and
//     per-cloud uploader threads persist across files; OpenUpload(path)
//     returns an UploadWriter with incremental Write() + Finish(), so a
//     multi-file backup pays pipeline setup once and never materializes a
//     file in memory. The Rabin chunker carries its rolling window across
//     Write calls, so chunk boundaries (and therefore dedup) are identical
//     to a single whole-buffer upload.
//   - Download(path, ByteSink&) is sink-driven and pipelined (§4.6 applied
//     to restore): one fetch lane per cloud streams GetShares batches while
//     decode workers reconstruct earlier batches, and decoded secrets reach
//     the sink in recipe order with bounded client memory.
//
// The one-shot Upload(path, buffer) / Download(path) -> Bytes calls are
// thin wrappers over the session/sink API and produce byte- and
// stats-identical results.
#ifndef CDSTORE_SRC_CORE_CLIENT_H_
#define CDSTORE_SRC_CORE_CLIENT_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/chunking/chunker.h"
#include "src/core/coding_pipeline.h"
#include "src/dedup/fingerprint.h"
#include "src/dispersal/aont_rs.h"
#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/util/bounded_queue.h"
#include "src/util/byte_sink.h"
#include "src/util/stats.h"
#include "src/util/sync.h"

namespace cdstore {

struct ClientOptions {
  int n = 4;
  int k = 3;
  Bytes salt;                       // deployment-wide convergent-hash salt
  int encode_threads = 2;           // §5.3 uses two encoding threads
  int decode_threads = 2;           // restore-side decode workers
  bool fixed_chunking = false;      // default: variable-size (§4.2)
  size_t fixed_chunk_size = 4096;
  RabinChunkerOptions rabin;
  // Minimum capacity of each pipeline queue in items (secrets in flight per
  // stage). Per-cloud queues are deepened to roughly 2x stream_batch_bytes
  // of shares so encoding keeps running while an upload RPC is in flight.
  size_t pipeline_queue_depth = 64;
  // Dedup-query / transfer granularity of the upload pipeline (§4.1
  // batches shares in 4MB buffers; a finer batch lets the first bytes hit
  // the wire early in the upload instead of after most of the file is
  // encoded). Dedup results and transferred bytes are identical for any
  // value.
  size_t stream_batch_bytes = 1 << 20;
  // GetShares granularity of the download path: one fetch RPC covers about
  // this many share bytes. Client restore memory is bounded by a small
  // constant number of these batches per cloud.
  size_t download_batch_bytes = 4 << 20;
  // Observability (src/obs/): when set, the client records per-cloud RPC
  // latency, dedup hit counters, encode throughput, upload-pool occupancy/
  // backpressure stalls, and download lane failovers into this registry.
  // Not owned; must outlive the client. Null = metrics off, zero overhead.
  MetricRegistry* metrics = nullptr;
  // Request tracing (src/obs/trace.h): when set, each Upload/Download
  // becomes a trace root with spans for every pipeline stage (chunker,
  // encode workers, reorder buffer, per-cloud uploaders, fetch lanes,
  // decode batches) and every RPC — and the trace context rides the wire
  // so server-side spans join the same trace. Not owned; must outlive the
  // client. Null = tracing off, zero overhead.
  Tracer* tracer = nullptr;
};

// Per-cloud upload accounting (skew across clouds is invisible in the
// aggregate numbers; benches report these to expose it).
struct CloudUploadStats {
  uint64_t transferred_share_bytes = 0;
  uint64_t intra_duplicate_shares = 0;
  uint64_t rpcs = 0;  // FpQuery + UploadShares + PutFile calls issued
};

// How one uploaded file binds into the versioned namespace. The default
// preserves the pre-versioning overwrite semantics; backup workloads pass
// kNewGeneration so a re-upload of a path appends a weekly-snapshot-style
// generation instead of replacing (§5.2's workloads are snapshot series).
struct UploadFileOptions {
  PutFileMode mode = PutFileMode::kReplaceLatest;
  // kPutGeneration only: the exact generation id to (re)write — repair
  // keeps ids in lockstep across clouds.
  uint64_t generation_id = 0;
  // Stored with the generation; drives keep-within-window retention.
  uint64_t timestamp_ms = 0;
};

// Per-upload accounting, the quantities behind Figure 6.
struct UploadStats {
  uint64_t logical_bytes = 0;        // original data
  uint64_t generation_id = 0;        // generation the servers bound this file to
  uint64_t num_secrets = 0;
  uint64_t logical_share_bytes = 0;  // all n shares before dedup
  uint64_t transferred_share_bytes = 0;  // after intra-user dedup
  uint64_t intra_duplicate_shares = 0;
  double chunk_encode_seconds = 0;   // client compute time
  std::vector<CloudUploadStats> per_cloud;  // indexed by cloud id
};

struct CloudDownloadStats {
  uint64_t received_share_bytes = 0;
  uint64_t rpcs = 0;  // GetFile + GetShares calls issued
};

struct DownloadStats {
  uint64_t received_share_bytes = 0;
  uint64_t num_secrets = 0;
  int brute_force_recoveries = 0;
  std::vector<int> clouds_used;
  std::vector<CloudDownloadStats> per_cloud;  // indexed by cloud id
};

// --- namespace-scoped control plane ----------------------------------------

// One path of the user's namespace, reconstructed from k clouds' ListPaths
// replies: entries are matched across clouds by path_id and the cleartext
// name is decoded from the k name shares (§4.3 — no single cloud ever held
// it).
struct NamespaceEntry {
  std::string path_name;
  Bytes path_id;
  uint64_t latest_generation = 0;
  uint64_t generation_count = 0;
  uint64_t latest_timestamp_ms = 0;
  uint64_t latest_logical_bytes = 0;
};

struct NamespaceListing {
  std::vector<NamespaceEntry> entries;  // sorted by path_name
  // Path ids that could not be resolved to a name: fewer than k of the
  // listed clouds carry the id, or the decoded name does not hash back to
  // it. An untrusted cloud can drop or cross-wire a name share, so this is
  // reported rather than assumed zero.
  uint64_t unnamed_paths = 0;
};

// Point-in-time selector for a namespace restore: 0 = latest, otherwise
// each path restores its newest generation with timestamp_ms <= as_of_ms
// and paths born after the point are skipped.
struct RestoreSelector {
  uint64_t as_of_ms = 0;
};

struct RestoredPath {
  std::string path_name;
  uint64_t generation = 0;  // the generation actually restored
  uint64_t bytes = 0;
};

struct RestoreNamespaceStats {
  uint64_t files_restored = 0;
  uint64_t files_skipped = 0;  // born after as-of, or skipped by the factory
  // Paths whose names could not be resolved (NamespaceListing::
  // unnamed_paths) and therefore were NOT restored. Callers must check
  // this to know the restore covered the whole namespace.
  uint64_t files_unnamed = 0;
  uint64_t bytes_restored = 0;
  std::vector<RestoredPath> restored;  // in restore (path-name) order
};

// Supplies the sink each restored file streams into; a null sink skips the
// path. The sink is destroyed when the file's download completes.
using RestoreSinkFactory = std::function<Result<std::unique_ptr<ByteSink>>(
    const NamespaceEntry& entry, uint64_t generation)>;

class CdstoreClient;

// A long-lived upload pipeline over a fixed set of clouds: one uploader
// thread per cloud and the client's encode workers persist for the life of
// the session, so consecutive files skip all thread setup/teardown and
// transport state stays warm. One UploadWriter may be open at a time (a
// backup is a sequential stream of files); the writer must be finished or
// destroyed before the session is closed or destroyed.
class BackupSession {
 public:
  // Incremental writer for one file. Write() accepts arbitrary slices of
  // the file stream; chunking, encoding, dedup queries, and share transfer
  // all proceed while later bytes are still being written. Finish() seals
  // the file (commits the recipe on every cloud) and reports stats.
  // Destroying an unfinished writer aborts the upload: no recipe is
  // committed, and the session remains usable.
  class UploadWriter : public ByteSink {
   public:
    ~UploadWriter() override;

    UploadWriter(const UploadWriter&) = delete;
    UploadWriter& operator=(const UploadWriter&) = delete;

    // Appends the next run of file bytes. The buffer may be reused or freed
    // as soon as the call returns (chunks are copied into the pipeline).
    // Blocks when the pipeline is at capacity (backpressure). Sticky-fails
    // after an encode or upload error, and always fails after Finish.
    Status Write(ConstByteSpan data);

    // Zero-copy variant: chunks are submitted as slices of `data`, which
    // must stay valid until Finish() returns. For callers that hold the
    // whole file in one buffer anyway (the one-shot Upload wrapper).
    Status WritePinned(ConstByteSpan data);

    // ByteSink: lets a download stream straight into an upload (repair).
    Status Append(ConstByteSpan data) override { return Write(data); }

    // Flushes the trailing chunk, drains the pipeline, commits the recipe
    // on every cloud, and accumulates this file's numbers into `stats`.
    // Returns the first error from any stage; on error no recipe commit is
    // attempted. Exactly one Finish call is allowed.
    Status Finish(UploadStats* stats = nullptr);

    uint64_t bytes_written() const { return bytes_written_; }

   private:
    friend class BackupSession;
    UploadWriter(BackupSession* session, std::vector<Bytes> path_keys);

    Status SubmitChunks(ConstByteSpan data, bool pinned);

    BackupSession* session_;
    UploadFileOptions upload_opts_;  // read by uploader lanes (set pre-Push)
    // Per-lane generation id each cloud bound the recipe to (distinct
    // slots; read after the lane futures resolve). Finish() fails loudly
    // when clouds disagree — silent id skew would make every later
    // generation selector pair shares of different snapshots.
    std::vector<uint64_t> lane_generations_;
    std::unique_ptr<Chunker> chunker_;
    // The file's trace root ("upload"): started before the stream so the
    // encode workers inherit its context; ended in Finish (or the dtor on
    // the abort path) after every lane has resolved.
    TraceRequest trace_;
    std::unique_ptr<CodingPipeline::Stream> stream_;
    BroadcastQueue<CodingPipeline::EncodedSecret> pool_;

    // Read by the uploader threads; written before pool_.Close() provides
    // the necessary happens-before.
    std::vector<Bytes> path_keys_;
    // Namespace metadata riding on every PutFile (set before Push, like
    // upload_opts_): lets each cloud enumerate this path back to a client.
    Bytes path_id_;
    uint32_t path_name_len_ = 0;
    uint64_t file_size_ = 0;
    std::atomic<bool> abort_{false};
    std::vector<std::promise<Status>> cloud_promises_;  // set by uploader lanes
    std::vector<std::future<Status>> cloud_results_;

    Mutex stats_mu_;
    UploadStats file_stats_ GUARDED_BY(stats_mu_);  // filled by uploader lanes
    uint64_t bytes_written_ = 0;
    uint64_t num_secrets_ = 0;
    uint64_t logical_share_bytes_ = 0;
    Status submit_status_;
    bool finished_ = false;
    Stopwatch compute_watch_;
  };

  ~BackupSession();  // closes the session; any writer must be gone already

  BackupSession(const BackupSession&) = delete;
  BackupSession& operator=(const BackupSession&) = delete;

  // Starts the next file. Fails while another writer is unfinished or after
  // Close(). `options` selects generation-aware overwrite behavior: with
  // kNewGeneration a re-upload of an existing path appends a new backup
  // generation instead of replacing.
  Result<std::unique_ptr<UploadWriter>> OpenUpload(const std::string& path_name,
                                                   const UploadFileOptions& options = {});

  // Convenience: whole-buffer upload of one file through this session.
  Status Upload(const std::string& path_name, ConstByteSpan data,
                UploadStats* stats = nullptr, const UploadFileOptions& options = {});

  // Stops the uploader threads. Idempotent; called by the destructor.
  Status Close();

 private:
  friend class CdstoreClient;

  BackupSession(CdstoreClient* client, std::vector<int> clouds);

  void UploaderLoop(size_t lane);

  CdstoreClient* client_;
  std::vector<int> clouds_;  // target clouds, one uploader lane each
  // One single-slot job queue per lane: posting a writer's job to every
  // lane hands the file to all uploader threads at once.
  std::vector<std::unique_ptr<BoundedQueue<UploadWriter*>>> jobs_;
  std::vector<std::thread> uploaders_;
  std::atomic<bool> writer_open_{false};
  bool closed_ = false;
};

class CdstoreClient {
 public:
  // transports[i] talks to the CDStore server on cloud i; share i of every
  // secret goes to cloud i (§3.2 deterministic placement).
  CdstoreClient(std::vector<Transport*> transports, UserId user, const ClientOptions& options);

  // Starts a backup session over all n clouds. The session borrows this
  // client's encode workers: only one session may be open at a time, and
  // uploads must not run concurrently with it outside the session.
  Result<std::unique_ptr<BackupSession>> OpenBackupSession();

  // Backs up `data` under `path_name`. Thin wrapper: opens a one-file
  // session.
  Status Upload(const std::string& path_name, ConstByteSpan data, UploadStats* stats = nullptr,
                const UploadFileOptions& options = {});

  // Restores a file from any k reachable clouds, streaming restored bytes
  // to `sink` in file order. Per-cloud fetch lanes and decode workers
  // overlap, and memory stays bounded by a few download batches per cloud.
  // `generation` selects a backup generation (0 = latest); clouds whose
  // resolved generation disagrees are rejected, so a restore never mixes
  // generations.
  Status Download(const std::string& path_name, ByteSink& sink,
                  DownloadStats* stats = nullptr, uint64_t generation = 0);

  // Whole-buffer wrapper over the sink API.
  Result<Bytes> Download(const std::string& path_name, DownloadStats* stats = nullptr,
                         uint64_t generation = 0);

  // Removes the file — every generation — from all reachable clouds.
  // NotFound when no cloud has the path.
  Status DeleteFile(const std::string& path_name);

  // --- versioned namespace -------------------------------------------------

  // Enumerates a path's backup generations (ascending). Served by the
  // first reachable cloud: generation ids and logical sizes are in
  // lockstep across clouds; unique_bytes is that cloud's measurement (all
  // clouds agree up to share-size constants). `exclude_cloud` skips one
  // cloud as a source (repair must not trust the cloud being repaired).
  Result<std::vector<VersionInfo>> ListVersions(const std::string& path_name,
                                                int exclude_cloud = -1);

  // Drops one generation on every cloud. Surviving generations keep every
  // share they reference (per-user refcounts make pruning exact).
  Status DeleteVersion(const std::string& path_name, uint64_t generation);

  // Applies a retention policy (keep-last-N / keep-within-window) on every
  // cloud and returns the first successful cloud's summary; run GC next to
  // reclaim the pruned containers. Fails if any cloud failed.
  Result<ApplyRetentionReply> ApplyRetention(const std::string& path_name,
                                             const RetentionPolicy& policy);

  // --- namespace-scoped control plane --------------------------------------

  // Deterministic cross-cloud id of a path: a domain-separated salted hash
  // of the cleartext name, identical on every cloud, so one path's listing
  // entries can be matched across clouds. Leaks only equality-of-path —
  // the linkage each cloud's deterministic name share already exposes.
  Bytes PathIdOf(const std::string& path_name) const;

  // One raw ListPaths page from one cloud (bounded reply; resume with the
  // returned next_cursor). Building block for ListPaths() and tests.
  Result<ListPathsReply> ListPathsPage(int cloud, ConstByteSpan cursor,
                                       uint32_t max_entries = 0);

  // Enumerates the whole namespace: pages through k reachable clouds'
  // listings, matches entries by path_id, and decodes each path's name
  // from its k shares (verified against path_id end to end). `page_size`
  // caps entries per RPC (0 = server default); the client never holds more
  // than the final listing, the servers never frame more than one page.
  Result<NamespaceListing> ListPaths(uint32_t page_size = 0);

  // One retention sweep over every path of the namespace on every cloud
  // (server-side, commit-locked per page — O(pages) lock churn instead of
  // O(paths)). Prunes exactly what a per-path ApplyRetention loop would.
  // Returns the first successful cloud's summary; fails if any cloud
  // failed. Run GC next to reclaim the pruned containers.
  Result<ApplyRetentionNamespaceReply> ApplyRetentionNamespace(const RetentionPolicy& policy,
                                                               uint32_t page_size = 0);

  // Point-in-time restore of the whole namespace (the paper's §5.2 restore
  // scenario, whole-backup-set edition): enumerates the namespace, resolves
  // each path's generation against `selector` (skipping paths born after
  // the as-of point), and streams every file through the pipelined
  // download path — decode workers stay warm across files — into the sink
  // `sink_factory` supplies for it. Bytes are identical to per-file
  // Download(path, sink, generation) calls.
  Result<RestoreNamespaceStats> RestoreNamespace(const RestoreSelector& selector,
                                                 const RestoreSinkFactory& sink_factory);

  // Rebuilds `target_cloud`'s shares of a file (e.g. after a cloud loses
  // data): streams the restore from the surviving clouds straight into a
  // single-cloud session writer, so re-encoding and re-upload overlap the
  // fetch and no full copy of the file is materialized (§3.1 reliability).
  // `generation` = 0 repairs the latest; otherwise that generation is
  // rewritten under its original id and timestamp.
  Status RepairFile(const std::string& path_name, int target_cloud, uint64_t generation = 0);

  int n() const { return opts_.n; }
  int k() const { return opts_.k; }
  UserId user() const { return user_; }

 private:
  friend class BackupSession;
  friend class BackupSession::UploadWriter;

  std::unique_ptr<Chunker> MakeChunker() const;
  // Deterministic per-cloud keys for the (sensitive) pathname: the path is
  // itself convergent-dispersed and each cloud sees only its share (§4.3).
  Result<std::vector<Bytes>> PathKeys(const std::string& path_name) const;

  // The one transport choke point when metrics are on: times the RPC into
  // cdstore_client_rpc_latency_ns{cloud=,rpc=}. With metrics off this is
  // exactly transports_[cloud]->Call(frame).
  Result<Bytes> CallCloud(int cloud, const Bytes& frame);
  // One typed RPC: CallCloud, then the carried error or the decoded Reply.
  // A reply of another type or a malformed one is an error, never success.
  template <class Reply, class Request>
  Result<Reply> CallTyped(int cloud, const Request& request);
  // Per-cloud counter with a {cloud="<id>"} label; no-op when metrics are
  // off or delta is 0.
  void CountCloud(const char* name, int cloud, uint64_t delta);

  // One uploader lane: consumer `consumer` of `in`, uploading each bundle's
  // share for `cloud`, interleaving dedup queries, batched share transfer,
  // and finally the recipe put (bound per `fopts`). `file_size` is read
  // only after the stream drains (the writer knows it by then). If
  // `abort_upload` is set by the time the stream drains (encode failure or
  // writer abandoned), finalization is skipped so a truncated recipe is
  // never committed.
  // On success *bound_generation (if non-null) receives the generation id
  // this cloud bound the recipe to.
  Status UploadLane(int cloud, int consumer, const Bytes& path_key, const Bytes* path_id,
                    uint32_t path_name_len, const uint64_t* file_size,
                    const UploadFileOptions* fopts,
                    BroadcastQueue<CodingPipeline::EncodedSecret>* in,
                    const std::atomic<bool>* abort_upload, UploadStats* stats, Mutex* stats_mu,
                    uint64_t* bound_generation);

  // Fetches one cloud's recipe for `generation` (0 = latest); used during
  // download/repair.
  Result<GetFileReply> FetchRecipe(int cloud, const Bytes& path_key, uint64_t generation);
  // Pipelined download core; `path_keys` already resolved.
  Status DownloadPipelined(const std::vector<Bytes>& path_keys, uint64_t generation,
                           ByteSink& sink, DownloadStats* stats);
  // Fallback: decodes secret `s` by brute force over every cloud's
  // copy after the normal k-share decode failed (corruption recovery §3.2).
  Status BruteForceSecret(const std::vector<Bytes>& path_keys, uint64_t generation, size_t s,
                          size_t num_secrets, const std::vector<int>& have_ids,
                          std::vector<Bytes> have_shares, size_t secret_size, Bytes* out);

  // Cached client-side instruments (null when metrics are off); resolved
  // once at construction so hot paths never touch the registry.
  struct ClientMetrics {
    Histogram* encode_ns_per_mb = nullptr;  // chunk+encode wall time per MiB
    Counter* lane_failovers = nullptr;      // restore lanes retargeted to a spare cloud
    Counter* upload_stalls = nullptr;       // encode blocked on the upload pool
    Gauge* upload_queue_depth = nullptr;    // upload-pool window occupancy
  };
  ClientMetrics metrics_;
  // Lazily cached per-(cloud, rpc-type) latency histograms, indexed
  // [cloud * kNumMsgTypes + type] — the same slot trick as the server's
  // Dispatch, so CallCloud never rebuilds label strings on the hot path.
  // Null when metrics are off.
  std::unique_ptr<std::atomic<Histogram*>[]> rpc_latency_slots_;

  std::vector<Transport*> transports_;
  UserId user_;
  ClientOptions opts_;
  std::unique_ptr<AontRsScheme> scheme_;  // CAONT-RS
  CodingPipeline pipeline_;         // encode workers (upload direction)
  CodingPipeline decode_pipeline_;  // decode workers (download direction)
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_CORE_CLIENT_H_
