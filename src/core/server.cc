#include "src/core/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/recipe.h"
#include "src/crypto/sha256.h"
#include "src/dedup/index_accel.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

namespace {
const char kMetaKey[] = "Mserver";

// Paths per page of an ApplyRetentionNamespace sweep whose request leaves
// page_size at 0; the sweep takes the commit lock once per page.
constexpr size_t kRetentionSweepPage = 64;

// Resolves ServerOptions::share_index_stripes to the power of two the
// stripe mask needs: 0 = auto (hardware_concurrency, at least 16);
// explicit counts round up. Capped at 256 — beyond that, lock spreading
// stops paying for the per-stripe bloom minimums.
size_t ResolveStripeCount(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    n = std::max<size_t>(16, std::thread::hardware_concurrency());
  }
  size_t p = 1;
  while (p < n && p < 256) {
    p *= 2;
  }
  return p;
}
}  // namespace

CdstoreServer::CdstoreServer(StorageBackend* backend, const ServerOptions& options,
                             std::unique_ptr<Db> db)
    : stripe_count_(ResolveStripeCount(options.share_index_stripes)),
      stripe_mask_(stripe_count_ - 1),
      stripes_(std::make_unique<ShareStripe[]>(stripe_count_)),
      backend_(backend),
      options_(options),
      db_(std::move(db)),
      share_index_(db_.get()),
      file_index_(db_.get()),
      share_store_(backend,
                   ContainerStoreOptions{options.container_capacity,
                                         options.container_cache_bytes, "c"},
                   /*first_container_id=*/1),
      recipe_store_(backend,
                    ContainerStoreOptions{options.container_capacity,
                                          options.container_cache_bytes, "r"},
                    /*first_container_id=*/1) {
  if (options_.metrics != nullptr) {
    metrics_.stripe_contention =
        options_.metrics->GetCounter("cdstore_server_stripe_contention_total");
    metrics_.claim_waits = options_.metrics->GetCounter("cdstore_server_claim_waits_total");
    static const char* const kOutcomes[2] = {"bloom_negative", "lsm"};
    for (int i = 0; i < 2; ++i) {
      metrics_.fpquery_ns[i] = options_.metrics->GetHistogram(
          "cdstore_dedup_fpquery_ns", {{"outcome", kOutcomes[i]}}, LatencyBucketsNs());
    }
  }
}

void CdstoreServer::CountUser(const char* name, UserId user, uint64_t delta) {
  if (options_.metrics == nullptr || delta == 0) {
    return;
  }
  options_.metrics->GetCounter(name, {{"user", std::to_string(user)}})->Inc(delta);
}

CdstoreServer::~CdstoreServer() {
  Status st = Flush();
  if (!st.ok()) {
    LOG(ERROR) << "flush on shutdown failed (unsealed containers ride on the "
                  "n-k cloud redundancy): "
               << st;
  }
}

Status CdstoreServer::Flush() {
  WriterMutexLock ops(ops_mu_);
  return FlushExclusive();
}

Status CdstoreServer::FlushExclusive() {
  // Attempt every store even after a failure: a share-seal error must not
  // silently skip the recipe seal or the counter save.
  Status share_st = share_store_.FlushAll();
  if (!share_st.ok()) {
    LOG(WARNING) << "share container seal failed: " << share_st;
  }
  Status recipe_st = recipe_store_.FlushAll();
  if (!recipe_st.ok()) {
    LOG(WARNING) << "recipe container seal failed: " << recipe_st;
  }
  Status meta_st;
  {
    MutexLock commit(commit_mu_);
    WriteBatch meta_only;
    meta_st = CommitLocked(&meta_only, counters_);
  }
  if (!share_st.ok()) {
    return share_st;
  }
  if (!recipe_st.ok()) {
    return recipe_st;
  }
  return meta_st;
}

Result<std::unique_ptr<CdstoreServer>> CdstoreServer::Create(StorageBackend* backend,
                                                             const ServerOptions& options) {
  ASSIGN_OR_RETURN(std::unique_ptr<Db> db, Db::Open(options.index_dir, options.db));
  auto server =
      std::unique_ptr<CdstoreServer>(new CdstoreServer(backend, options, std::move(db)));
  RETURN_IF_ERROR(server->LoadMeta());
  RETURN_IF_ERROR(server->RebuildAccel());
  return server;
}

Status CdstoreServer::RebuildAccel() {
  share_index_.AttachAccel(nullptr);
  accel_.reset();
  if (!options_.dedup_accel) {
    return Status::Ok();
  }
  DedupAccelOptions ao;
  ao.stripes = stripe_count_;
  ao.bloom_bits_per_key = options_.dedup_bloom_bits_per_key;
  ao.metrics = options_.metrics;
  ASSIGN_OR_RETURN(accel_, DedupIndexAccel::Build(&share_index_, ao));
  share_index_.AttachAccel(accel_.get());
  return Status::Ok();
}

namespace {

// Parses a container object name (prefix + 16 hex digits) back to its id;
// false for any other backend object (index snapshots etc.).
bool ParseContainerId(const std::string& name, char prefix, uint64_t* id) {
  if (name.size() != 17 || name[0] != prefix) {
    return false;
  }
  char* end = nullptr;
  *id = std::strtoull(name.c_str() + 1, &end, 16);
  return end == name.c_str() + name.size();
}

// Holds a runtime-computed set of stripe mutexes exclusively (always in
// ascending stripe order — see StripesFor). A dynamic lock set is beyond
// what thread-safety analysis can model, so acquisition and release opt
// out statically; TSAN still checks the ordering discipline dynamically.
class StripeLockSet {
 public:
  // `contention` (optional) counts the stripes whose lock blocked — the
  // server's stripe-contention metric, recorded with a try-first probe so
  // the uncontended path costs nothing extra.
  explicit StripeLockSet(std::vector<Mutex*> mus,
                         Counter* contention = nullptr) NO_THREAD_SAFETY_ANALYSIS
      : mus_(std::move(mus)) {
    for (Mutex* mu : mus_) {
      if (mu->TryLock()) {
        continue;
      }
      if (contention != nullptr) {
        contention->Inc();
      }
      mu->Lock();
    }
  }
  ~StripeLockSet() NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = mus_.rbegin(); it != mus_.rend(); ++it) {
      (*it)->Unlock();
    }
  }
  StripeLockSet(const StripeLockSet&) = delete;
  StripeLockSet& operator=(const StripeLockSet&) = delete;

 private:
  std::vector<Mutex*> mus_;
};

}  // namespace

Status CdstoreServer::LoadMeta() {
  Bytes value;
  Status st = db_->Get(BytesOf(kMetaKey), &value);
  if (st.code() != StatusCode::kNotFound) {
    RETURN_IF_ERROR(st);
    BufferReader r(value);
    uint64_t share_next = 1, recipe_next = 1;
    uint64_t stored_bytes = 0, files = 0, generations = 0;
    RETURN_IF_ERROR(r.GetU64(&share_next));
    RETURN_IF_ERROR(r.GetU64(&recipe_next));
    RETURN_IF_ERROR(r.GetU64(&stored_bytes));
    RETURN_IF_ERROR(r.GetU64(&files));
    RETURN_IF_ERROR(r.GetU64(&generations));
    {
      MutexLock commit(commit_mu_);
      counters_ = Counters{stored_bytes, files, generations};
    }
    // Restore the container id sequences so new containers never collide
    // with ones already at the backend.
    share_store_.AdvanceContainerId(share_next);
    recipe_store_.AdvanceContainerId(recipe_next);
  }
  // The persisted sequence can lag reality (a meta save that raced a
  // concurrent append, or a crash before the save): never reuse the id of
  // any container already at the backend, or a new seal would overwrite a
  // live object that index entries still point into.
  ASSIGN_OR_RETURN(std::vector<std::string> objects, backend_->List());
  uint64_t max_share = 0, max_recipe = 0;
  for (const std::string& name : objects) {
    uint64_t id = 0;
    if (ParseContainerId(name, 'c', &id)) {
      max_share = std::max(max_share, id);
    } else if (ParseContainerId(name, 'r', &id)) {
      max_recipe = std::max(max_recipe, id);
    }
  }
  share_store_.AdvanceContainerId(max_share + 1);
  recipe_store_.AdvanceContainerId(max_recipe + 1);
  return Status::Ok();
}

Status CdstoreServer::CommitLocked(WriteBatch* batch, const Counters& next) {
  BufferWriter w;
  w.PutU64(share_store_.next_container_id());
  w.PutU64(recipe_store_.next_container_id());
  w.PutU64(next.physical_share_bytes);
  w.PutU64(next.file_count);
  w.PutU64(next.generation_count);
  batch->Put(BytesOf(kMetaKey), w.data());
  RETURN_IF_ERROR(db_->Write(*batch));
  counters_ = next;
  return Status::Ok();
}

std::vector<Mutex*> CdstoreServer::StripesFor(const std::vector<Fingerprint>& add,
                                              const std::vector<Fingerprint>& drop) {
  std::vector<uint8_t> used(stripe_count_, 0);
  for (const Fingerprint& fp : add) {
    used[StripeOf(fp)] = 1;
  }
  for (const Fingerprint& fp : drop) {
    used[StripeOf(fp)] = 1;
  }
  std::vector<Mutex*> mus;
  for (size_t i = 0; i < stripe_count_; ++i) {
    if (used[i]) {
      mus.push_back(&stripes_[i].mu);
    }
  }
  return mus;
}

void CdstoreServer::FpQuery(const FpQueryRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  CountUser("cdstore_server_user_requests_total", req.user);
  FpQueryReply reply;
  reply.duplicate.resize(req.fps.size(), 0);
  uint64_t dup_hits = 0;
  // Per-fingerprint timing only when metrics are on (two clock reads per
  // fingerprint otherwise wasted); the histogram is split by whether the
  // bloom answered, so the bloom/LSM cost structure shows up directly in
  // cdstore_dedup_fpquery_ns{outcome=...}.
  const bool timed = metrics_.fpquery_ns[0] != nullptr;
  for (size_t i = 0; i < req.fps.size(); ++i) {
    // Intra-user dedup (§3.3): the answer reveals only whether THIS user
    // already uploaded the share — never other users' holdings, which
    // defeats the side-channel attack of [28]. No stripe lock: the read
    // is one Db::Get, and only this user's own requests change its answer.
    AccelOutcome outcome = AccelOutcome::kLsm;
    std::chrono::steady_clock::time_point t0;
    if (timed) {
      t0 = std::chrono::steady_clock::now();
    }
    auto has = share_index_.UserHasShare(req.fps[i], req.user, &outcome);
    if (timed) {
      metrics_.fpquery_ns[static_cast<size_t>(outcome)]->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    if (!has.ok()) {
      rb.SendError(has.status());
      return;
    }
    reply.duplicate[i] = has.value().has_value() ? 1 : 0;
    dup_hits += reply.duplicate[i];
  }
  CountUser("cdstore_server_user_dedup_hits_total", req.user, dup_hits);
  rb.Send(reply);
}

void CdstoreServer::UploadShares(const UploadSharesRequestView& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  CountUser("cdstore_server_user_requests_total", req.user);
  UploadSharesReply reply;
  // New entries commit as one batched index write at the end; `pending`
  // catches duplicates within this request that the index can't see yet.
  std::vector<std::pair<Fingerprint, ShareLocation>> new_entries;
  std::unordered_set<Fingerprint, FingerprintHash> pending;
  uint64_t batch_bytes = 0;
  uint32_t stored = 0;
  Status failure;

  auto release_claims = [&]() {
    for (const auto& [fp, loc] : new_entries) {
      ShareStripe& s = stripes_[StripeOf(fp)];
      MutexLock lock(s.mu);
      s.inflight.erase(fp);
      s.claim_released.SignalAll();
    }
    new_entries.clear();
    batch_bytes = 0;
  };
  // Commits the accumulated inserts and the counters as one index write,
  // then releases the claims. The counters advance only with the write, so
  // a failed commit never inflates the persisted accounting.
  auto commit_batch = [&]() -> Status {
    ScopedSpan commit_span(options_.tracer, "kv_commit");
    commit_span.AnnotateKV("entries", new_entries.size());
    Status st;
    if (!new_entries.empty()) {
      MutexLock commit(commit_mu_);
      WriteBatch batch;
      share_index_.StageInserts(new_entries, &batch);
      Counters next = counters_;
      next.physical_share_bytes += batch_bytes;
      st = CommitLocked(&batch, next);
      if (st.ok()) {
        stored += static_cast<uint32_t>(new_entries.size());
      }
    }
    release_claims();
    return st;
  };

  for (ConstByteSpan share : req.shares) {
    // Inter-user dedup (§3.3): fingerprint recomputed server-side — a
    // client-supplied fingerprint could otherwise claim ownership of
    // another user's share content [27, 43]. Hashing, the dominant cost,
    // runs outside every lock, so concurrent clients' uploads overlap.
    Fingerprint fp = FingerprintOf(share);
    if (pending.count(fp) > 0) {
      ++reply.deduplicated;
      continue;
    }
    ShareStripe& stripe = stripes_[StripeOf(fp)];
    bool claimed = false;
    {
      MutexLock lock(stripe.mu);
      if (stripe.inflight.count(fp) > 0) {
        // A concurrent request is storing this share right now. Wait for
        // its claim to resolve and then consult the index: replying
        // "deduplicated" against an uncommitted claim would let the client
        // reference a share whose insert may still fail. Deadlock-free
        // because we commit (and release) our own claims before waiting.
        if (!new_entries.empty()) {
          lock.Unlock();
          if (Status st = commit_batch(); !st.ok()) {
            failure = st;
            break;
          }
          lock.Lock();
        }
        if (metrics_.claim_waits != nullptr) {
          metrics_.claim_waits->Inc();
        }
        // Span the wait on the foreign claim: in a trace this is the time
        // the upload sat behind another client storing the same share.
        ScopedSpan wait_span(options_.tracer, "claim_wait");
        stripe.claim_released.Wait(stripe.mu, [&]() REQUIRES(stripe.mu) {
          return stripe.inflight.count(fp) == 0;
        });
      }
      auto existing = share_index_.Lookup(fp);
      if (!existing.ok()) {
        failure = existing.status();
      } else if (existing.value().has_value()) {
        ++reply.deduplicated;
      } else {
        stripe.inflight.insert(fp);
        claimed = true;
      }
    }
    if (!failure.ok()) {
      break;
    }
    if (!claimed) {
      continue;
    }
    Result<BlobHandle> handle = [&] {
      // Container append; a seal inside flushes to the cloud backend, which
      // is why this deserves its own span.
      ScopedSpan append_span(options_.tracer, "store_append");
      return share_store_.Append(req.user, share);
    }();
    if (!handle.ok()) {
      MutexLock lock(stripe.mu);
      stripe.inflight.erase(fp);
      stripe.claim_released.SignalAll();
      failure = handle.status();
      break;
    }
    ShareLocation loc;
    loc.container_id = handle.value().container_id;
    loc.index_in_container = handle.value().index;
    loc.share_size = static_cast<uint32_t>(share.size());
    pending.insert(fp);
    new_entries.emplace_back(std::move(fp), loc);
    batch_bytes += share.size();
  }
  if (failure.ok()) {
    failure = commit_batch();
  } else {
    // An errored request releases its claims without indexing the current
    // batch (its appended blobs are orphans GC reclaims). A batch already
    // committed mid-request — forced by a foreign claim — stays indexed
    // with zero owners, exactly like any upload abandoned before PutFile;
    // a retry of the failed request dedups against it.
    release_claims();
  }
  if (!failure.ok()) {
    rb.SendError(failure);
    return;
  }
  reply.stored = stored;
  CountUser("cdstore_server_user_dedup_hits_total", req.user, reply.deduplicated);
  CountUser("cdstore_server_user_shares_stored_total", req.user, reply.stored);
  rb.Send(reply);
}

void CdstoreServer::PutFile(const PutFileRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  CountUser("cdstore_server_user_requests_total", req.user);
  if (req.mode == PutFileMode::kPutGeneration && req.generation_id == 0) {
    rb.SendError(Status::InvalidArgument("kPutGeneration requires a generation id"));
    return;
  }
  // Append the recipe blob before taking the commit lock and before
  // touching any reference counts: if the append fails, the index is
  // untouched; if the batched reference update below fails (e.g. an
  // unknown share), the only residue is an orphaned recipe blob, which GC
  // reclaims — never inconsistent refcounts. Appending first also keeps
  // the container-store backend I/O (a possible seal) out of the commit
  // critical section.
  FileRecipe recipe;
  recipe.file_size = req.file_size;
  recipe.entries = req.recipe;
  Result<BlobHandle> handle = [&] {
    ScopedSpan append_span(options_.tracer, "recipe_append");
    return recipe_store_.Append(req.user, recipe.Serialize());
  }();
  if (!handle.ok()) {
    rb.SendError(handle.status());
    return;
  }

  Bytes path_hash = Sha256::Hash(req.path_key);
  MutexLock commit(commit_mu_);
  // kReplaceLatest drops the replaced latest generation's references;
  // kPutGeneration (repair) drops the same-id record's, if one exists;
  // kNewGeneration drops nothing — earlier generations stay restorable.
  std::vector<Fingerprint> drop_fps;
  uint64_t replaced_gen = 0;
  uint64_t replaced_unique_bytes = 0;
  bool replacing = false;
  if (req.mode != PutFileMode::kNewGeneration) {
    uint64_t lookup = req.mode == PutFileMode::kPutGeneration ? req.generation_id : 0;
    auto old_rec = file_index_.GetGeneration(req.user, path_hash, lookup);
    if (old_rec.ok()) {
      // The replaced generation's recipe MUST be droppable: swallowing a
      // fetch failure here would silently append instead of replace and
      // leak the old references beyond GC's reach forever.
      auto old_recipe = FetchRecipeBlob(old_rec.value());
      if (!old_recipe.ok()) {
        rb.SendError(Status(old_recipe.status().code(),
                            "replaced generation's recipe unreadable: " +
                                old_recipe.status().message()));
        return;
      }
      drop_fps.reserve(old_recipe.value().entries.size());
      for (const RecipeEntry& e : old_recipe.value().entries) {
        drop_fps.push_back(e.fp);
      }
      replaced_gen = old_rec.value().generation_id;
      replaced_unique_bytes = old_rec.value().unique_bytes;
      replacing = true;
    } else if (old_rec.status().code() != StatusCode::kNotFound) {
      rb.SendError(old_rec.status());
      return;
    }
  }

  // Verify every recipe entry names a stored share, drop the replaced
  // generation's references, add this one's, and write the generation
  // record, path head and counters — all staged into one batch and
  // committed with one write under the stripes the touched fingerprints
  // hash to. The reference pass also counts this generation's unique bytes
  // (shares first referenced here), exact because every touched stripe is
  // held until the write.
  std::vector<Fingerprint> add_fps;
  add_fps.reserve(req.recipe.size());
  for (const RecipeEntry& e : req.recipe) {
    add_fps.push_back(e.fp);
  }
  GenerationRecord rec;
  {
    // Covers both acquiring the touched stripes and the commit under them —
    // the PutFile tail a contended server stretches.
    ScopedSpan stripe_span(options_.tracer, "stripe_wait");
    StripeLockSet stripe_locks(StripesFor(add_fps, drop_fps), metrics_.stripe_contention);
    WriteBatch batch;
    ShareIndex::ReferenceDelta delta;
    if (Status st = share_index_.StageReferences(add_fps, drop_fps, req.user,
                                                 /*skip_unknown_drops=*/true, &batch, &delta);
        !st.ok()) {
      rb.SendError(st);
      return;
    }

    rec.generation_id = req.generation_id;
    rec.file_size = req.file_size;
    rec.num_secrets = req.recipe.size();
    rec.recipe_container_id = handle.value().container_id;
    rec.recipe_index = handle.value().index;
    // In-place replacement (replace-latest or a same-id repair) carries the
    // replaced record's attribution forward: shares the old record first-
    // referenced and the new recipe still holds would otherwise recompute
    // as ~0 unique, orphaning those bytes from every generation's
    // accounting and inflating measured dedup ratios. Attribution that left
    // with erased last references is subtracted (saturating: a dropped
    // share may have been attributed to an older generation).
    if (replacing) {
      uint64_t carried = replaced_unique_bytes > delta.orphaned_bytes
                             ? replaced_unique_bytes - delta.orphaned_bytes
                             : 0;
      rec.unique_bytes = carried + delta.first_ref_bytes;
    } else {
      rec.unique_bytes = delta.first_ref_bytes;
    }
    rec.timestamp_ms = req.timestamp_ms;

    bool new_path = false;
    bool new_generation = true;
    // Every write stores the request's namespace fields in the path head: the
    // path_key is this cloud's name share, plus the cross-cloud path id and
    // the name length.
    PathNameInfo name;
    name.name_share = req.path_key;
    name.path_id = req.path_id;
    name.name_len = req.path_name_len;
    if (req.mode == PutFileMode::kPutGeneration ||
        (req.mode == PutFileMode::kReplaceLatest && replacing)) {
      // Replace IN PLACE under the existing id (for kReplaceLatest, the
      // replaced latest's). Reusing the id keeps per-cloud id allocation in
      // lockstep across partial-failure retries: a cloud that missed the
      // first attempt allocates the same id the others are rewriting.
      if (req.mode == PutFileMode::kReplaceLatest) {
        rec.generation_id = replaced_gen;
      }
      if (Status st = file_index_.StagePutGeneration(req.user, path_hash, name, rec, &batch,
                                                     &new_path, &new_generation);
          !st.ok()) {
        rb.SendError(st);
        return;
      }
    } else {
      auto staged =
          file_index_.StageAppendGeneration(req.user, path_hash, name, rec, &batch, &new_path);
      if (!staged.ok()) {
        rb.SendError(staged.status());
        return;
      }
      rec = staged.value();
    }
    Counters next = counters_;
    next.file_count += new_path ? 1 : 0;
    next.generation_count += new_generation ? 1 : 0;
    if (Status st = CommitLocked(&batch, next); !st.ok()) {
      rb.SendError(st);
      return;
    }
  }
  PutFileReply reply;
  reply.generation_id = rec.generation_id;
  rb.Send(reply);
}

void CdstoreServer::GetFile(const GetFileRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  CountUser("cdstore_server_user_requests_total", req.user);
  Bytes path_hash = Sha256::Hash(req.path_key);
  Result<GenerationRecord> rec = Status::NotFound("unresolved");
  {
    MutexLock commit(commit_mu_);
    rec = file_index_.GetGeneration(req.user, path_hash, req.generation);
  }
  if (!rec.ok()) {
    rb.SendError(rec.status());
    return;
  }
  // Recipe blobs are append-only and never deleted outside exclusive GC,
  // so a published entry's blob stays fetchable without the commit lock.
  auto recipe = FetchRecipeBlob(rec.value());
  if (!recipe.ok()) {
    rb.SendError(recipe.status());
    return;
  }
  GetFileReply reply;
  reply.generation_id = rec.value().generation_id;
  reply.file_size = recipe.value().file_size;
  reply.recipe = std::move(recipe.value().entries);
  rb.Send(reply);
}

void CdstoreServer::GetShares(const GetSharesRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  CountUser("cdstore_server_user_requests_total", req.user);
  rb.BeginShares(req.fps.size());
  for (const Fingerprint& fp : req.fps) {
    // Access control: only owners may fetch a share by fingerprint —
    // possession of a fingerprint must not grant access to the content
    // (the [27] attack). Unlocked like FpQuery: while this user holds a
    // reference the entry cannot be erased, and only GC, which runs with
    // ops_mu_ exclusive, moves it.
    auto owns = share_index_.UserHasShare(fp, req.user);
    if (!owns.ok()) {
      rb.SendError(owns.status());
      return;
    }
    if (!owns.value().has_value()) {
      rb.SendError(Status::PermissionDenied("user does not own share " +
                                            FingerprintAbbrev(fp)));
      return;
    }
    const ShareLocation& loc = *owns.value();
    auto share = share_store_.Fetch(BlobHandle{loc.container_id, loc.index_in_container});
    if (!share.ok()) {
      rb.SendError(share.status());
      return;
    }
    // Straight into the reply frame: no vector<Bytes> gather + re-encode.
    rb.AddShare(share.value());
  }
}

Result<FileRecipe> CdstoreServer::FetchRecipeBlob(const GenerationRecord& rec) {
  ASSIGN_OR_RETURN(Bytes blob,
                   recipe_store_.Fetch(BlobHandle{rec.recipe_container_id, rec.recipe_index}));
  return FileRecipe::Deserialize(blob);
}

Result<bool> CdstoreServer::StagePruneLocked(UserId user, ConstByteSpan path_hash,
                                             const PruneRule& prune, Deletion* del) {
  Result<std::vector<GenerationRecord>> all = file_index_.ListGenerations(user, path_hash);
  if (all.status().code() == StatusCode::kNotFound) {
    return false;
  }
  RETURN_IF_ERROR(all.status());
  std::vector<GenerationRecord> doomed;
  std::vector<GenerationRecord> kept;
  for (size_t i = 0; i < all.value().size(); ++i) {
    (prune(all.value(), i) ? doomed : kept).push_back(all.value()[i]);
  }
  if (doomed.empty()) {
    return true;
  }
  // All or nothing per path: a failed recipe fetch (a cloud that lost the
  // object) must leave no stray drops for another path's commit to carry.
  std::vector<Fingerprint> drops;
  for (const GenerationRecord& rec : doomed) {
    ASSIGN_OR_RETURN(FileRecipe recipe, FetchRecipeBlob(rec));
    for (const RecipeEntry& e : recipe.entries) {
      drops.push_back(e.fp);
    }
  }
  RETURN_IF_ERROR(
      file_index_.StageDeleteGenerations(user, path_hash, doomed, kept, &del->batch));
  del->drops.insert(del->drops.end(), drops.begin(), drops.end());
  del->deleted.insert(del->deleted.end(), doomed.begin(), doomed.end());
  del->paths_removed += kept.empty() ? 1 : 0;
  return true;
}

Status CdstoreServer::CommitDeletionLocked(UserId user, Deletion* del, uint32_t* orphaned) {
  *orphaned = 0;
  if (del->deleted.empty()) {
    return Status::Ok();
  }
  StripeLockSet stripe_locks(StripesFor({}, del->drops), metrics_.stripe_contention);
  ShareIndex::ReferenceDelta delta;
  RETURN_IF_ERROR(share_index_.StageReferences({}, del->drops, user,
                                               /*skip_unknown_drops=*/false, &del->batch,
                                               &delta));
  // Orphaned shares leave the index here; reclaiming their container space
  // is GC's job (§4.7, realized in CollectGarbage).
  Counters next = counters_;
  next.generation_count -= del->deleted.size();
  next.file_count -= del->paths_removed;
  RETURN_IF_ERROR(CommitLocked(&del->batch, next));
  *orphaned = delta.orphaned;
  return Status::Ok();
}

void CdstoreServer::DeleteFile(const DeleteFileRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  CountUser("cdstore_server_user_requests_total", req.user);
  MutexLock commit(commit_mu_);
  Deletion del;
  DeleteFileReply reply;
  Result<bool> found = StagePruneLocked(
      req.user, Sha256::Hash(req.path_key), [](const auto&, size_t) { return true; }, &del);
  Status st = found.ok() && !found.value() ? Status::NotFound("file not found") : found.status();
  if (st.ok()) {
    st = CommitDeletionLocked(req.user, &del, &reply.shares_orphaned);
  }
  if (!st.ok()) {
    rb.SendError(st);
    return;
  }
  reply.generations_deleted = static_cast<uint32_t>(del.deleted.size());
  rb.Send(reply);
}

void CdstoreServer::ListVersions(const ListVersionsRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  Bytes path_hash = Sha256::Hash(req.path_key);
  Result<std::vector<GenerationRecord>> gens = Status::NotFound("unresolved");
  {
    MutexLock commit(commit_mu_);
    gens = file_index_.ListGenerations(req.user, path_hash);
  }
  if (!gens.ok()) {
    rb.SendError(gens.status().code() == StatusCode::kNotFound
                     ? Status::NotFound("file not found")
                     : gens.status());
    return;
  }
  ListVersionsReply reply;
  reply.versions.reserve(gens.value().size());
  for (const GenerationRecord& rec : gens.value()) {
    VersionInfo v;
    v.generation_id = rec.generation_id;
    v.logical_bytes = rec.file_size;
    v.unique_bytes = rec.unique_bytes;
    v.num_secrets = rec.num_secrets;
    v.timestamp_ms = rec.timestamp_ms;
    reply.versions.push_back(v);
  }
  rb.Send(reply);
}

void CdstoreServer::DeleteVersion(const DeleteVersionRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  if (req.generation_id == 0) {
    rb.SendError(Status::InvalidArgument("generation id must be nonzero"));
    return;
  }
  MutexLock commit(commit_mu_);
  Deletion del;
  DeleteVersionReply reply;
  Result<bool> found = StagePruneLocked(
      req.user, Sha256::Hash(req.path_key),
      [&](const auto& all, size_t i) { return all[i].generation_id == req.generation_id; },
      &del);
  Status st = found.ok() && del.deleted.empty()
                  ? Status::NotFound("generation " + std::to_string(req.generation_id) +
                                     " not found")
                  : found.status();
  if (st.ok()) {
    st = CommitDeletionLocked(req.user, &del, &reply.shares_orphaned);
  }
  if (!st.ok()) {
    rb.SendError(st);
    return;
  }
  rb.Send(reply);
}

namespace {

// The generations `p` prunes from a path's ascending list: a generation
// survives if EITHER keep rule claims it, and with no rules set nothing is
// pruned. Shared by the per-path RPC and the namespace sweep, so their
// prune decisions are identical by construction.
std::function<bool(const std::vector<GenerationRecord>&, size_t)> RetentionRule(
    const RetentionPolicy& p) {
  return [p](const std::vector<GenerationRecord>& all, size_t i) {
    if (p.keep_last_n == 0 && p.keep_within_ms == 0) {
      return false;
    }
    // The newest keep_last_n are the list's tail.
    if (p.keep_last_n > 0 && all.size() - i <= p.keep_last_n) {
      return false;
    }
    // Overflow-safe age test: timestamp + window could wrap for sentinel
    // windows like UINT64_MAX ("keep everything"), silently inverting the
    // rule into prune-everything.
    const uint64_t ts = all[i].timestamp_ms;
    return !(p.keep_within_ms > 0 && (ts >= p.now_ms || p.now_ms - ts <= p.keep_within_ms));
  };
}

// Adds the generations deleted[from..] to a retention reply.
void TallyPruned(const std::vector<GenerationRecord>& deleted, size_t from,
                 ApplyRetentionReply* out) {
  for (size_t i = from; i < deleted.size(); ++i) {
    ++out->generations_deleted;
    out->logical_bytes_deleted += deleted[i].file_size;
    out->deleted_generations.push_back(deleted[i].generation_id);
  }
}

}  // namespace

void CdstoreServer::ApplyRetention(const ApplyRetentionRequest& req, ReplyBuilder& rb) {
  ApplyRetentionReply reply;
  {
    ReaderMutexLock ops(ops_mu_);
    MutexLock commit(commit_mu_);
    Deletion del;
    Result<bool> found =
        StagePruneLocked(req.user, Sha256::Hash(req.path_key), RetentionRule(req.policy), &del);
    if (!found.ok() || !found.value()) {
      rb.SendError(found.ok() ? Status::NotFound("file not found") : found.status());
      return;
    }
    if (Status st = CommitDeletionLocked(req.user, &del, &reply.shares_orphaned); !st.ok()) {
      rb.SendError(st);
      return;
    }
    TallyPruned(del.deleted, 0, &reply);
  }
  MaybeAutoSnapshot(reply.generations_deleted > 0);
  rb.Send(reply);
}

void CdstoreServer::ListPaths(const ListPathsRequest& req, ReplyBuilder& rb) {
  ReaderMutexLock ops(ops_mu_);
  // Clamp the page: however large the namespace (or the client's ask), one
  // reply frame carries at most list_paths_max_page heads.
  size_t limit = req.max_entries == 0
                     ? options_.list_paths_max_page
                     : std::min<size_t>(req.max_entries, options_.list_paths_max_page);
  ListPathsReply reply;
  MutexLock commit(commit_mu_);
  auto page = file_index_.ScanPaths(req.user, req.cursor, limit);
  if (!page.ok()) {
    rb.SendError(page.status());
    return;
  }
  reply.paths.reserve(page.value().entries.size());
  for (const PathScanEntry& e : page.value().entries) {
    PathInfo p;
    p.path_id = e.head.path_id;
    p.name_share = e.head.name_share;
    p.name_len = e.head.name_len;
    p.latest_generation = e.head.latest_generation;
    p.generation_count = e.head.generation_count;
    auto latest =
        file_index_.GetGeneration(req.user, e.path_hash, e.head.latest_generation);
    if (latest.ok()) {
      p.latest_timestamp_ms = latest.value().timestamp_ms;
      p.latest_logical_bytes = latest.value().file_size;
    } else if (latest.status().code() != StatusCode::kNotFound) {
      rb.SendError(latest.status());
      return;
    }
    reply.paths.push_back(std::move(p));
  }
  reply.next_cursor = page.value().next_cursor;
  rb.Send(reply);
}

void CdstoreServer::ApplyRetentionNamespace(const ApplyRetentionNamespaceRequest& req,
                                            ReplyBuilder& rb) {
  ApplyRetentionNamespaceReply reply;
  {
    ReaderMutexLock ops(ops_mu_);
    size_t page_size = req.page_size == 0
                           ? kRetentionSweepPage
                           : std::min<size_t>(req.page_size, options_.list_paths_max_page);
    Bytes cursor;
    while (true) {
      // One commit-lock acquisition covers a whole PAGE of paths — the
      // sweep churns the lock O(pages) instead of O(paths), which is the
      // point of the namespace RPC. Between pages the lock is released, so
      // concurrent uploads and restores keep committing during a large
      // sweep; the resume cursor is a key position, immune to paths
      // appearing or disappearing in between.
      MutexLock commit(commit_mu_);
      auto page = file_index_.ScanPaths(req.user, cursor, page_size);
      if (!page.ok()) {
        rb.SendError(page.status());
        return;
      }
      ++reply.pages;
      // The whole page commits as one write: its paths' records and heads,
      // one net reference drop over all of them, and the counters.
      Deletion del;
      for (const PathScanEntry& e : page.value().entries) {
        size_t first = del.deleted.size();
        uint64_t paths_removed = del.paths_removed;
        // A path gone since the scan is skipped; any other failure, a lost
        // recipe object included, fails the sweep before this page commits.
        Result<bool> found =
            StagePruneLocked(req.user, e.path_hash, RetentionRule(req.policy), &del);
        if (!found.ok()) {
          rb.SendError(found.status());
          return;
        }
        ++reply.paths_swept;
        ApplyRetentionReply per;
        TallyPruned(del.deleted, first, &per);
        reply.generations_deleted += per.generations_deleted;
        reply.logical_bytes_deleted += per.logical_bytes_deleted;
        if (per.generations_deleted > 0) {
          PathRetentionResult r;
          r.path_id = e.head.path_id;
          r.generations_deleted = per.generations_deleted;
          r.logical_bytes_deleted = per.logical_bytes_deleted;
          r.path_removed = del.paths_removed > paths_removed ? 1 : 0;
          reply.paths_removed += r.path_removed;
          reply.per_path.push_back(std::move(r));
        }
      }
      uint32_t orphaned = 0;
      if (Status st = CommitDeletionLocked(req.user, &del, &orphaned); !st.ok()) {
        rb.SendError(st);
        return;
      }
      reply.shares_orphaned += orphaned;
      cursor = page.value().next_cursor;
      if (cursor.empty()) {
        break;
      }
    }
  }
  MaybeAutoSnapshot(reply.generations_deleted > 0);
  rb.Send(reply);
}

void CdstoreServer::Stats(const StatsRequest& req, ReplyBuilder& rb) {
  (void)req;
  // Exclusive: UniqueShareCount iterates the LSM, which must not race a
  // concurrent memtable flush triggered by an index write.
  WriterMutexLock ops(ops_mu_);
  StatsReply reply;
  auto unique = share_index_.UniqueShareCount();
  if (!unique.ok()) {
    rb.SendError(unique.status());
    return;
  }
  reply.unique_shares = unique.value();
  {
    MutexLock commit(commit_mu_);
    reply.stored_bytes = counters_.physical_share_bytes;
    reply.file_count = counters_.file_count;
    reply.generation_count = counters_.generation_count;
  }
  reply.container_count = share_store_.sealed_container_count();
  rb.Send(reply);
}

void CdstoreServer::Gc(const GcRequest& req, ReplyBuilder& rb) {
  (void)req;
  auto reply = CollectGarbage();
  if (!reply.ok()) {
    rb.SendError(reply.status());
    return;
  }
  MaybeAutoSnapshot(reply.value().containers_rewritten > 0);
  rb.Send(reply.value());
}

Result<GcReply> CdstoreServer::CollectGarbage() {
  WriterMutexLock ops(ops_mu_);
  GcReply stats;
  // 1. Seal open containers so every live share is on the backend.
  RETURN_IF_ERROR(share_store_.FlushAll());

  // 2. Live map: container -> [(fp, index, size)].
  struct LiveShare {
    Fingerprint fp;
    uint32_t index;
    uint32_t size;
  };
  std::map<uint64_t, std::vector<LiveShare>> live;
  RETURN_IF_ERROR(share_index_.ForEach(
      [&live](const Fingerprint& fp, const ShareIndexEntry& entry) {
        live[entry.location.container_id].push_back(
            {fp, entry.location.index_in_container, entry.location.share_size});
      }));

  // 3. Visit every sealed share container ("c" prefix).
  ASSIGN_OR_RETURN(std::vector<std::string> objects, backend_->List());
  for (const std::string& name : objects) {
    uint64_t container_id = 0;
    if (!ParseContainerId(name, 'c', &container_id)) {
      continue;  // recipe container, index snapshot, or other object
    }
    ++stats.containers_scanned;
    ASSIGN_OR_RETURN(Bytes image, backend_->Get(name));
    ASSIGN_OR_RETURN(ContainerReader reader, ContainerReader::Parse(std::move(image)));
    auto it = live.find(container_id);
    size_t live_count = it == live.end() ? 0 : it->second.size();
    if (live_count == reader.count()) {
      continue;  // fully live: nothing to reclaim
    }
    // Rewrite the live shares into fresh containers, seal them, commit the
    // moves as one index write, and only then delete the old container: a
    // failure (or crash) anywhere before the commit leaves the index naming
    // the old container, which is still at the backend.
    uint64_t dead_bytes = 0;
    for (uint32_t b = 0; b < reader.count(); ++b) {
      ASSIGN_OR_RETURN(ConstByteSpan blob, reader.Blob(b));
      dead_bytes += blob.size();
    }
    WriteBatch batch;
    if (it != live.end()) {
      for (const LiveShare& share : it->second) {
        ASSIGN_OR_RETURN(ConstByteSpan blob, reader.Blob(share.index));
        dead_bytes -= blob.size();
        ASSIGN_OR_RETURN(BlobHandle handle, share_store_.Append(/*user=*/0, blob));
        ShareLocation loc;
        loc.container_id = handle.container_id;
        loc.index_in_container = handle.index;
        loc.share_size = share.size;
        RETURN_IF_ERROR(share_index_.StageLocation(share.fp, loc, &batch));
        ++stats.live_shares_moved;
      }
    }
    RETURN_IF_ERROR(share_store_.FlushUser(0));
    {
      MutexLock commit(commit_mu_);
      Counters next = counters_;
      next.physical_share_bytes -= std::min(next.physical_share_bytes, dead_bytes);
      RETURN_IF_ERROR(CommitLocked(&batch, next));
    }
    RETURN_IF_ERROR(share_store_.DeleteContainer(container_id));
    ++stats.containers_rewritten;
    stats.bytes_reclaimed += dead_bytes;
  }
  return stats;
}

namespace {
constexpr char kSnapshotPrefix = 's';

std::string SnapshotName(uint64_t seq) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%c%016llx", kSnapshotPrefix,
                static_cast<unsigned long long>(seq));
  return buf;
}
}  // namespace

Result<std::vector<std::string>> CdstoreServer::ListAutoSnapshots() {
  ReaderMutexLock ops(ops_mu_);
  ASSIGN_OR_RETURN(std::vector<std::string> objects, backend_->List());
  std::vector<std::pair<uint64_t, std::string>> snaps;
  for (const std::string& name : objects) {
    uint64_t id = 0;
    if (ParseContainerId(name, kSnapshotPrefix, &id)) {
      snaps.emplace_back(id, name);
    }
  }
  std::sort(snaps.begin(), snaps.end());
  std::vector<std::string> out;
  out.reserve(snaps.size());
  for (auto& [id, name] : snaps) {
    out.push_back(std::move(name));
  }
  return out;
}

void CdstoreServer::MaybeAutoSnapshot(bool did_work) {
  if (!options_.auto_index_snapshot || !did_work) {
    return;
  }
  // The maintenance RPC that got us here already succeeded and released
  // its locks; the snapshot is a best-effort follow-up (§4.4's "periodic
  // snapshots ... for reliability"), so failures are logged, not returned.
  WriterMutexLock ops(ops_mu_);
  auto objects = backend_->List();
  if (!objects.ok()) {
    LOG(WARNING) << "auto snapshot skipped: backend list failed: " << objects.status();
    return;
  }
  // The sequence is derived from the backend listing (max existing + 1),
  // so it needs no extra persisted state and survives restarts.
  std::vector<std::pair<uint64_t, std::string>> snaps;
  uint64_t max_seq = 0;
  for (const std::string& name : objects.value()) {
    uint64_t id = 0;
    if (ParseContainerId(name, kSnapshotPrefix, &id)) {
      snaps.emplace_back(id, name);
      max_seq = std::max(max_seq, id);
    }
  }
  uint64_t seq = max_seq + 1;
  if (Status st = BackupIndexSnapshotExclusive(SnapshotName(seq)); !st.ok()) {
    LOG(WARNING) << "auto snapshot failed: " << st;
    return;
  }
  // Keep-last-N lifecycle: with the new snapshot written, prune every
  // automatic snapshot older than the newest keep_last (a keep_last of 0
  // still retains the one just written).
  uint64_t keep = std::max<uint64_t>(1, options_.snapshot_keep_last);
  for (const auto& [id, name] : snaps) {
    if (id + keep <= seq) {
      if (Status st = backend_->Delete(name); !st.ok()) {
        LOG(WARNING) << "stale snapshot " << name << " not pruned: " << st;
      }
    }
  }
}

Status CdstoreServer::BackupIndexSnapshot(const std::string& object_name) {
  WriterMutexLock ops(ops_mu_);
  return BackupIndexSnapshotExclusive(object_name);
}

Status CdstoreServer::BackupIndexSnapshotExclusive(const std::string& object_name) {
  // A consistent view: the LSM iterator at the current sequence.
  BufferWriter w;
  w.PutU32(0x1d8c5eed);  // snapshot magic
  uint64_t count = 0;
  BufferWriter body;
  auto it = db_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    body.PutBytes(it->key());
    body.PutBytes(it->value());
    ++count;
  }
  // A scan cut short by a corrupt block must not pass for a full snapshot.
  RETURN_IF_ERROR(it->status());
  w.PutU64(count);
  w.PutRaw(body.data());
  return backend_->Put(object_name, w.data());
}

Status CdstoreServer::RestoreIndexSnapshot(const std::string& object_name) {
  WriterMutexLock ops(ops_mu_);
  ASSIGN_OR_RETURN(Bytes blob, backend_->Get(object_name));
  BufferReader r(blob);
  uint32_t magic = 0;
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != 0x1d8c5eed) {
    return Status::Corruption("bad index snapshot magic");
  }
  RETURN_IF_ERROR(r.GetU64(&count));
  WriteBatch batch;
  for (uint64_t i = 0; i < count; ++i) {
    Bytes key, value;
    RETURN_IF_ERROR(r.GetBytes(&key));
    RETURN_IF_ERROR(r.GetBytes(&value));
    batch.Put(key, value);
    if (batch.size() >= 512) {
      RETURN_IF_ERROR(db_->Write(batch));
      batch.Clear();
    }
  }
  RETURN_IF_ERROR(db_->Write(batch));
  RETURN_IF_ERROR(LoadMeta());
  // The raw batch writes above bypassed ShareIndex, so the accel's blooms
  // know nothing of the restored fingerprints — rebuild or every FpQuery
  // against restored state would get a false bloom negative.
  return RebuildAccel();
}

uint64_t CdstoreServer::physical_share_bytes() const {
  MutexLock commit(commit_mu_);
  return counters_.physical_share_bytes;
}

uint64_t CdstoreServer::unique_share_count() const {
  // Exclusive for the same reason as Stats: the LSM iteration must not
  // race an index write's memtable flush.
  auto* self = const_cast<CdstoreServer*>(this);
  WriterMutexLock ops(self->ops_mu_);
  auto count = self->share_index_.UniqueShareCount();
  return count.ok() ? count.value() : 0;
}

}  // namespace cdstore
