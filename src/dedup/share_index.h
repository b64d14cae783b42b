// The share index (§4.4): maps each unique share fingerprint to the
// container holding it, plus per-user reference counts that support
// intra-user dedup queries and deletion. Persisted in the LSM KV store.
#ifndef CDSTORE_SRC_DEDUP_SHARE_INDEX_H_
#define CDSTORE_SRC_DEDUP_SHARE_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/kvstore/db.h"
#include "src/util/status.h"

namespace cdstore {

class DedupIndexAccel;

// Whether the attached lookup accelerator answered a read or it went to
// the LSM (always kLsm when none is attached). The server histograms
// FpQuery latency per outcome (cdstore_dedup_fpquery_ns{outcome=...}).
enum class AccelOutcome : uint8_t {
  kBloomNegative = 0,  // per-stripe bloom proved the fingerprint absent
  kLsm = 1,            // fell through to the LSM
};

// Where a unique share physically lives.
struct ShareLocation {
  uint64_t container_id = 0;
  uint32_t index_in_container = 0;
  uint32_t share_size = 0;
};

struct ShareIndexEntry {
  ShareLocation location;
  // user -> number of references from that user's files.
  std::map<UserId, uint32_t> owners;

  Bytes Serialize() const;
  static Result<ShareIndexEntry> Deserialize(ConstByteSpan data);
};

class ShareIndex {
 public:
  // The index does not own `db`; multiple indices (file + share) may share
  // one database using distinct key prefixes.
  explicit ShareIndex(Db* db);

  // Attaches a lookup accelerator (src/dedup/index_accel.h): reads consult
  // its bloom filters before the LSM, and every insert keeps it exact (the
  // bloom add comes BEFORE the commit). Not owned; nullptr detaches. The
  // accel must have been built from this index's current contents
  // (DedupIndexAccel::Build), or bloom negatives would be wrong.
  void AttachAccel(DedupIndexAccel* accel) { accel_ = accel; }
  DedupIndexAccel* accel() const { return accel_; }

  // Does this user already own a share with this fingerprint? Returns its
  // location if so, nullopt otherwise: one index read serves both the
  // intra-user dedup query a CDStore client issues before uploading and
  // the owner check plus lookup of a restore. One Db::Get, atomic per key,
  // so the answer needs no caller lock: it depends only on this user's
  // reference count, which no other user's mutation changes.
  // `outcome`, when non-null, reports whether the bloom answered.
  Result<std::optional<ShareLocation>> UserHasShare(const Fingerprint& fp, UserId user,
                                                    AccelOutcome* outcome = nullptr);

  // Is this share stored at all (by any user)? Inter-user dedup check.
  Result<std::optional<ShareLocation>> Lookup(const Fingerprint& fp,
                                              AccelOutcome* outcome = nullptr);

  // Records a newly stored unique share. Fails with kAlreadyExists if the
  // fingerprint is already present.
  Status Insert(const Fingerprint& fp, const ShareLocation& location);

  // Records a batch of newly stored shares as one atomic write (a single
  // WAL record). Precondition: the caller has verified none of the
  // fingerprints are present (the server checks under its own lock); no
  // per-entry existence probe is repeated here.
  Status InsertBatch(const std::vector<std::pair<Fingerprint, ShareLocation>>& entries);

  // Adds one reference from `user` (called per recipe entry at file
  // finalization, covering deduplicated shares too).
  Status AddReference(const Fingerprint& fp, UserId user);

  // File-finalization fast path: verifies every fingerprint in `add` is
  // indexed, then atomically applies one reference add per `add` entry and
  // one drop per `drop` entry (the replaced file's old recipe, possibly
  // empty) for `user`. One read and one batched write per distinct
  // fingerprint instead of two reads and an individual write per recipe
  // entry. Unknown `drop` fingerprints are skipped, matching the lenient
  // per-entry drop during file replacement; verification failure leaves the
  // index untouched.
  //
  // When `first_ref_bytes` is non-null it receives the total share bytes of
  // the distinct `add` fingerprints that had NO owner (any user) before
  // this call — the exact "unique bytes" a new backup generation
  // contributes, counted from the pre-call state so add/drop overlap never
  // inflates it. When `dropped_last_ref_bytes` is non-null it receives the
  // share bytes of entries this call erased because a drop took their last
  // reference (the replaced generation's attribution leaving the system).
  // The caller must hold the stripes of every touched fingerprint for the
  // counts to be exact under concurrency.
  Status ReplaceReferences(const std::vector<Fingerprint>& add,
                           const std::vector<Fingerprint>& drop, UserId user,
                           uint64_t* first_ref_bytes = nullptr,
                           uint64_t* dropped_last_ref_bytes = nullptr);

  // Drops one reference. Sets *orphaned when no references remain (the
  // share is garbage-collectible).
  Status DropReference(const Fingerprint& fp, UserId user, bool* orphaned);

  // Removes the entry entirely (after GC reclaims the share).
  Status Erase(const Fingerprint& fp);

  // Rewrites the physical location (container migration during GC).
  Status UpdateLocation(const Fingerprint& fp, const ShareLocation& location);

  // Number of unique shares indexed. The scans below fail with the LSM
  // iterator's error (e.g. kCorruption) instead of returning a short count
  // or visiting a prefix of the index.
  Result<uint64_t> UniqueShareCount();

  // Visits every (fingerprint, entry) pair. Used by garbage collection to
  // build the container -> live shares map.
  Status ForEach(const std::function<void(const Fingerprint&, const ShareIndexEntry&)>& fn);

  // Visits every indexed fingerprint without deserializing entries — the
  // cheap key-only scan the accel's startup bloom rebuild runs twice.
  Status ForEachFingerprint(const std::function<void(const Fingerprint&)>& fn);

  // Bulk-loads fully formed entries (location + owners) as one atomic
  // write, overwriting any existing values. Used by bench_dedup_index to
  // populate millions of fingerprints without per-entry existence probes;
  // accel bloom maintenance still applies.
  Status PutEntries(const std::vector<std::pair<Fingerprint, ShareIndexEntry>>& entries);

 private:
  // Bloom gate (when an accel is attached), then Db::Get and Deserialize.
  // NotFound propagates.
  Result<ShareIndexEntry> ReadEntry(const Fingerprint& fp, AccelOutcome* outcome);

  Bytes KeyFor(const Fingerprint& fp) const;

  Db* db_;
  DedupIndexAccel* accel_ = nullptr;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_DEDUP_SHARE_INDEX_H_
