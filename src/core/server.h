// The CDStore server (§4): one per cloud, co-located with the storage
// backend. Performs inter-user deduplication, maintains the file/share
// indices in the LSM KV store, and packs unique shares and recipes into
// containers.
//
// Concurrency (§4.6, §5: the server is multi-threaded and inter-user dedup
// must scale): the share index is guarded by fingerprint-sharded stripes
// that order its writers — UploadShares' claims and every reference
// read-modify-write — so uploads from different clients proceed in
// parallel, and share hashing, the dominant handler cost, runs outside
// every lock. FpQuery and GetShares take no stripe lock: each of their
// index reads is one Db::Get, atomic per key, and a user's answer depends
// only on that user's own reference count. Each RPC that changes the index
// stages its share-index, file-index and counter changes into one
// WriteBatch and commits it with one Db::Write under a narrow commit lock,
// so a failed or interrupted RPC leaves no part of its change behind;
// maintenance operations (flush, GC, snapshots) take the operations lock
// exclusively and see a quiesced server.
#ifndef CDSTORE_SRC_CORE_SERVER_H_
#define CDSTORE_SRC_CORE_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/recipe.h"
#include "src/dedup/file_index.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/net/message.h"
#include "src/net/service.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/storage/container_store.h"
#include "src/util/sync.h"

namespace cdstore {

struct ServerOptions {
  // Directory for the index database (the paper keeps indices on the VM's
  // local disk, §5.6).
  std::string index_dir;
  DbOptions db;
  size_t container_capacity = kDefaultContainerCapacity;
  // Bound on the container images each container store (shares, recipes)
  // caches; 0 = no cache, every fetch of a sealed container reads the
  // backend.
  size_t container_cache_bytes = 32 << 20;
  // --- share-index striping + lookup acceleration --------------------------
  // Share-index stripe count. 0 = auto: hardware_concurrency rounded up to
  // a power of two, clamped to [16, 256]; explicit values are rounded up to
  // a power of two and clamped to [1, 256]. Stripes (and the accel's
  // per-stripe blooms) are memory-only, so a store written at one count
  // reopens correctly at any other.
  size_t share_index_stripes = 0;
  // Build the dedup lookup accelerator (src/dedup/index_accel.h) at
  // startup: per-stripe negative-lookup blooms rebuilt from an index scan,
  // kept exact across inserts.
  bool dedup_accel = true;
  // Negative-filter density (≈1% false positives at 10).
  int dedup_bloom_bits_per_key = 10;
  // --- namespace control plane ---------------------------------------------
  // Hard clamp on a ListPaths page: no reply frame carries more heads than
  // this, however large the namespace (and whatever the client asked for).
  size_t list_paths_max_page = 512;
  // Snapshot lifecycle (§4.4 "periodic snapshots in the cloud backend"):
  // after maintenance that changed the index (retention pruning, GC), write
  // a BackupIndexSnapshot automatically and prune old automatic snapshots
  // to the newest `snapshot_keep_last`. Off by default so deployments (and
  // tests) that account backend bytes exactly opt in; the CLI and the
  // generation bench run with it on.
  bool auto_index_snapshot = false;
  uint32_t snapshot_keep_last = 2;
  // Observability (src/obs/): when set, the server records per-RPC
  // latency/bytes (via Dispatch), per-user request/dedup counters, and
  // stripe-contention/claim-wait counters into this registry, and serves
  // the GetMetrics RPC from it. Not owned; must outlive the server. Null =
  // metrics off, zero overhead.
  MetricRegistry* metrics = nullptr;
  // Request tracing (src/obs/trace.h): when set, handlers record spans for
  // their wait/commit points (claim_wait, stripe_wait, kv_commit,
  // store_append) under the trace context propagated on the wire, and the
  // GetTraces RPC serves this tracer's buffers. Not owned; must outlive
  // the server. Null = tracing off, zero overhead.
  Tracer* tracer = nullptr;
};

class CdstoreServer : public ServerService {
 public:
  // `backend` is the cloud object store this server fronts (not owned).
  static Result<std::unique_ptr<CdstoreServer>> Create(StorageBackend* backend,
                                                       const ServerOptions& options);

  // Graceful shutdown: seals all open containers to the backend and
  // persists counters. Every store is attempted even when an earlier one
  // fails; the first error is returned (and logged by the destructor — a
  // failed seal means unsealed containers ride only on the n-k cloud
  // redundancy until a retry succeeds).
  ~CdstoreServer() override;
  Status Flush();

  // --- typed service API (ServerService) ---------------------------------
  // All methods are thread-safe; UploadShares reads its share payloads as
  // spans into the request frame (zero per-share copies before the
  // container append).
  void FpQuery(const FpQueryRequest& req, ReplyBuilder& rb) override;
  void UploadShares(const UploadSharesRequestView& req, ReplyBuilder& rb) override;
  void PutFile(const PutFileRequest& req, ReplyBuilder& rb) override;
  void GetFile(const GetFileRequest& req, ReplyBuilder& rb) override;
  void GetShares(const GetSharesRequest& req, ReplyBuilder& rb) override;
  void DeleteFile(const DeleteFileRequest& req, ReplyBuilder& rb) override;
  void Stats(const StatsRequest& req, ReplyBuilder& rb) override;
  void Gc(const GcRequest& req, ReplyBuilder& rb) override;
  // Versioned namespace: a path is a series of backup generations (§5's
  // weekly snapshot workloads). PutFile appends/replaces generations,
  // these enumerate and prune them; pruning drops exactly the references
  // the pruned generation held, so shares survive while any generation
  // still names them.
  void ListVersions(const ListVersionsRequest& req, ReplyBuilder& rb) override;
  void DeleteVersion(const DeleteVersionRequest& req, ReplyBuilder& rb) override;
  void ApplyRetention(const ApplyRetentionRequest& req, ReplyBuilder& rb) override;
  // Namespace-scoped control plane. ListPaths pages through the user's
  // path heads with a resume cursor (frames stay bounded);
  // ApplyRetentionNamespace prunes every path under one RPC, acquiring the
  // commit lock once per PAGE of paths — prune decisions are identical to
  // a per-path ApplyRetention loop with the same policy.
  void ListPaths(const ListPathsRequest& req, ReplyBuilder& rb) override;
  void ApplyRetentionNamespace(const ApplyRetentionNamespaceRequest& req,
                               ReplyBuilder& rb) override;

  // Observability: Dispatch() times RPCs into this registry and the default
  // GetMetrics implementation serves its snapshot.
  MetricRegistry* metrics_registry() override { return options_.metrics; }
  // Dispatch() opens each traced request's "serve" span against this
  // tracer, and the default GetTraces implementation dumps it.
  Tracer* tracer() override { return options_.tracer; }

  // Convenience adapter for Transport construction.
  RpcHandler AsHandler() { return ServiceHandler(this); }

  // Accounting for experiments.
  uint64_t physical_share_bytes() const;
  uint64_t unique_share_count() const;

  // The resolved share-index stripe count (see ServerOptions) and the
  // attached lookup accelerator (null when dedup_accel is off). Exposed
  // for tests and benches.
  size_t share_stripe_count() const { return stripe_count_; }
  DedupIndexAccel* dedup_accel() const { return accel_.get(); }

  // --- §4.7 extensions -----------------------------------------------------
  // Garbage collection: rewrites sealed containers whose shares have been
  // partially orphaned by deletions, reclaiming backend space. (The paper
  // defers this to future work; realized here.)
  Result<GcReply> CollectGarbage();

  // Index snapshot to the cloud backend (§4.4: "leverage the snapshot
  // feature ... to store periodic snapshots in the cloud backend for
  // reliability"). The snapshot is a consistent LSM view serialized to one
  // object; RestoreIndexSnapshot reloads it into an empty server.
  Status BackupIndexSnapshot(const std::string& object_name);
  Status RestoreIndexSnapshot(const std::string& object_name);

  // Automatic snapshot objects ("s" + 16 hex digits) currently at the
  // backend, ascending by sequence. Exposed for tests and operator tools.
  Result<std::vector<std::string>> ListAutoSnapshots();

 private:
  CdstoreServer(StorageBackend* backend, const ServerOptions& options,
                std::unique_ptr<Db> db);

  // Fingerprint-space sharding of the share index. The count is resolved
  // from ServerOptions::share_index_stripes at construction (core-scaled
  // by default); StripeOfFingerprint keeps the accel's per-stripe blooms
  // aligned with these locks. Only writers take a stripe: UploadShares'
  // claim check and every reference read-modify-write.
  struct ShareStripe {
    Mutex mu;
    // Fingerprints an in-flight UploadShares has claimed but not yet
    // committed to the index. A concurrent request that meets a claim
    // waits (claims resolve in milliseconds) and then re-reads the index,
    // so a "deduplicated" reply always refers to a committed share.
    std::unordered_set<Fingerprint, FingerprintHash> inflight GUARDED_BY(mu);
    CondVar claim_released;
  };
  size_t StripeOf(const Fingerprint& fp) const {
    return StripeOfFingerprint(fp, stripe_mask_);
  }
  // The distinct stripe mutexes named by a fingerprint in `add` or `drop`,
  // ascending by stripe index — the acquisition order for batched
  // reference read-modify-writes (see StripeLockSet in server.cc).
  std::vector<Mutex*> StripesFor(const std::vector<Fingerprint>& add,
                                 const std::vector<Fingerprint>& drop);

  // The counters the meta record persists (with the container id sequences).
  struct Counters {
    uint64_t physical_share_bytes = 0;
    uint64_t file_count = 0;
    uint64_t generation_count = 0;  // all users
  };

  Status LoadMeta();
  // The one commit point of every index change: stages the meta record for
  // `next` into `batch`, writes it with one Db::Write, and only then
  // publishes `next` as the live counters.
  Status CommitLocked(WriteBatch* batch, const Counters& next) REQUIRES(commit_mu_);
  // Fetches + parses the recipe blob a generation record points at.
  Result<FileRecipe> FetchRecipeBlob(const GenerationRecord& rec);

  // What one deleting RPC (or one ApplyRetentionNamespace page) removes,
  // staged path by path and committed once by CommitDeletionLocked.
  struct Deletion {
    WriteBatch batch;                // file-index records and heads
    std::vector<Fingerprint> drops;  // every deleted recipe's entries
    std::vector<GenerationRecord> deleted;
    uint64_t paths_removed = 0;
  };
  // Selects generation i of a path's ascending generation list `all`.
  using PruneRule = std::function<bool(const std::vector<GenerationRecord>& all, size_t i)>;
  // Stages into `del` the removal of the generations of one path (by head
  // hash) that `prune` selects, fetching their recipes. False (nothing
  // staged) for an unknown path; on an error nothing is staged either.
  Result<bool> StagePruneLocked(UserId user, ConstByteSpan path_hash, const PruneRule& prune,
                                Deletion* del) REQUIRES(commit_mu_);
  // Stages one net reference drop over every staged generation, and
  // commits it all with one write under the stripes of every dropped
  // fingerprint. *orphaned receives the shares that lost their last
  // reference.
  Status CommitDeletionLocked(UserId user, Deletion* del, uint32_t* orphaned)
      REQUIRES(commit_mu_);
  // Writes an automatic index snapshot and prunes old automatic snapshot
  // objects to snapshot_keep_last. Takes ops_mu_ exclusive internally —
  // call only with no locks held (handlers call it after releasing their
  // shared ops lock). No-op unless auto_index_snapshot is on and
  // `did_work` says the index changed; failures are logged, not returned
  // (the maintenance that triggered the snapshot already succeeded).
  void MaybeAutoSnapshot(bool did_work) EXCLUDES(ops_mu_);
  Status BackupIndexSnapshotExclusive(const std::string& object_name) REQUIRES(ops_mu_);
  // Destructor path goes through Flush(), which wraps this in the lock.
  Status FlushExclusive() REQUIRES(ops_mu_);

  // Rebuilds the lookup accelerator from the index's current contents and
  // attaches it (no-op when dedup_accel is off). Called at startup and
  // after a snapshot restore's raw writes bypassed ShareIndex.
  Status RebuildAccel();

  // Lock order (outer to inner): ops_mu_ -> commit_mu_ -> stripe mutexes
  // (ascending). Handlers never acquire commit_mu_ while holding a stripe;
  // FpQuery and GetShares hold ops_mu_ shared and nothing else. Every index
  // change commits through CommitLocked under commit_mu_, UploadShares'
  // share inserts included; a handler that changes reference counts holds
  // the stripes of every touched fingerprint from its index reads across
  // that one write.
  mutable SharedMutex ops_mu_;  // shared: RPCs; exclusive: maintenance
  mutable Mutex commit_mu_;     // index commits, file-index reads, counters
  // ShareStripe is immovable (mutex + condvar), so the runtime-sized
  // stripe table lives behind a unique_ptr array.
  size_t stripe_count_;
  size_t stripe_mask_;
  std::unique_ptr<ShareStripe[]> stripes_;

  // Per-user counter with a {user="<id>"} label; no-op when metrics are
  // off or delta is 0. Registry lookups are reader-locked — cheap relative
  // to any handler's index work.
  void CountUser(const char* name, UserId user, uint64_t delta = 1);

  // Cached contention/claim instruments (null when metrics are off);
  // resolved once at construction so hot paths never touch the registry.
  struct ServerMetrics {
    Counter* stripe_contention = nullptr;  // PutFile stripe locks that blocked
    Counter* claim_waits = nullptr;        // waits on a foreign inflight claim
    // FpQuery per-fingerprint latency, split by whether the bloom answered
    // (cdstore_dedup_fpquery_ns{outcome=...}); indexed by AccelOutcome.
    Histogram* fpquery_ns[2] = {nullptr, nullptr};
  };
  ServerMetrics metrics_;

  StorageBackend* backend_;
  ServerOptions options_;
  std::unique_ptr<Db> db_;
  ShareIndex share_index_;
  std::unique_ptr<DedupIndexAccel> accel_;
  FileIndex file_index_;
  ContainerStore share_store_;
  ContainerStore recipe_store_;
  Counters counters_ GUARDED_BY(commit_mu_);
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_CORE_SERVER_H_
