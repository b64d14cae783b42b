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

  // Does this user already own a share with this fingerprint? Returns its
  // location if so, nullopt otherwise: one index read serves both the
  // intra-user dedup query a CDStore client issues before uploading and
  // the owner check plus lookup of a restore. One Db::Get, atomic per key,
  // so the answer needs no caller lock: it depends only on this user's
  // reference count, which no other user's mutation changes. A miss costs
  // the memtable probe plus one SSTable bloom check per table.
  Result<std::optional<ShareLocation>> UserHasShare(const Fingerprint& fp, UserId user);

  // Is this share stored at all (by any user)? Inter-user dedup check.
  Result<std::optional<ShareLocation>> Lookup(const Fingerprint& fp);

  // Stages entries for newly stored shares (no owners yet) into `batch`.
  // Precondition: none of the fingerprints is indexed (the server checks
  // under its claim); no per-entry existence probe is repeated here.
  void StageInserts(const std::vector<std::pair<Fingerprint, ShareLocation>>& entries,
                    WriteBatch* batch);

  // StageInserts committed as one atomic write (a single WAL record).
  Status InsertBatch(const std::vector<std::pair<Fingerprint, ShareLocation>>& entries);

  // Stages into `batch` the net reference change of one RPC for `user`:
  // one add per `add` entry (a new recipe) and one drop per `drop` entry
  // (the recipes of every generation the RPC replaces or deletes). One read
  // and one staged op per distinct fingerprint; an entry whose last
  // reference goes is erased, so GC sees its share as dead. Entries named
  // by `add` are never erased.
  //
  // Fails with kFailedPrecondition when an `add` fingerprint is not
  // indexed or a drop would take `user` below the references it holds; the
  // caller then discards `batch`, which may hold part of the delta. A
  // `drop` fingerprint that is not indexed at all is skipped when
  // `skip_unknown_drops` is set (the lenient replace path of PutFile) and
  // is such a failure otherwise.
  //
  // The caller must hold the stripes of every touched fingerprint until
  // `batch` commits: the staged values are computed from what the index
  // held when this was called.
  struct ReferenceDelta {
    // Share bytes of the distinct `add` fingerprints that had no owner
    // (any user) before: the unique bytes a new backup generation
    // contributes, counted from the pre-call state so add/drop overlap
    // never inflates it.
    uint64_t first_ref_bytes = 0;
    // Entries erased because a drop took their last reference, and their
    // share bytes.
    uint32_t orphaned = 0;
    uint64_t orphaned_bytes = 0;
  };
  Status StageReferences(const std::vector<Fingerprint>& add,
                         const std::vector<Fingerprint>& drop, UserId user,
                         bool skip_unknown_drops, WriteBatch* batch, ReferenceDelta* delta);

  // Stages a new physical location for an indexed share (container
  // migration during GC), keeping its owners.
  Status StageLocation(const Fingerprint& fp, const ShareLocation& location, WriteBatch* batch);

  // Number of unique shares indexed. The scans below fail with the LSM
  // iterator's error (e.g. kCorruption) instead of returning a short count
  // or visiting a prefix of the index.
  Result<uint64_t> UniqueShareCount();

  // Visits every (fingerprint, entry) pair. Used by garbage collection to
  // build the container -> live shares map.
  Status ForEach(const std::function<void(const Fingerprint&, const ShareIndexEntry&)>& fn);

  // Bulk-loads fully formed entries (location + owners) as one atomic
  // write, overwriting any existing values. Used by bench_dedup_index to
  // populate millions of fingerprints without per-entry existence probes.
  Status PutEntries(const std::vector<std::pair<Fingerprint, ShareIndexEntry>>& entries);

 private:
  // Db::Get and Deserialize. NotFound propagates.
  Result<ShareIndexEntry> ReadEntry(const Fingerprint& fp);

  Bytes KeyFor(const Fingerprint& fp) const;

  Db* db_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_DEDUP_SHARE_INDEX_H_
