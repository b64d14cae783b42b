#include "src/dedup/share_index.h"

#include "src/dedup/index_accel.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

namespace {
constexpr char kPrefix = 'S';
}  // namespace

Bytes ShareIndexEntry::Serialize() const {
  BufferWriter w;
  w.PutU64(location.container_id);
  w.PutU32(location.index_in_container);
  w.PutU32(location.share_size);
  w.PutU32(static_cast<uint32_t>(owners.size()));
  for (const auto& [user, refs] : owners) {
    w.PutU64(user);
    w.PutU32(refs);
  }
  return w.Take();
}

Result<ShareIndexEntry> ShareIndexEntry::Deserialize(ConstByteSpan data) {
  ShareIndexEntry e;
  BufferReader r(data);
  uint32_t count = 0;
  RETURN_IF_ERROR(r.GetU64(&e.location.container_id));
  RETURN_IF_ERROR(r.GetU32(&e.location.index_in_container));
  RETURN_IF_ERROR(r.GetU32(&e.location.share_size));
  RETURN_IF_ERROR(r.GetU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t user = 0;
    uint32_t refs = 0;
    RETURN_IF_ERROR(r.GetU64(&user));
    RETURN_IF_ERROR(r.GetU32(&refs));
    e.owners[user] = refs;
  }
  return e;
}

ShareIndex::ShareIndex(Db* db) : db_(db) { CHECK(db != nullptr); }

Bytes ShareIndex::KeyFor(const Fingerprint& fp) const {
  Bytes key;
  key.reserve(fp.size() + 1);
  key.push_back(kPrefix);
  key.insert(key.end(), fp.begin(), fp.end());
  return key;
}

Result<ShareIndexEntry> ShareIndex::ReadEntry(const Fingerprint& fp, AccelOutcome* outcome) {
  if (outcome != nullptr) {
    *outcome = AccelOutcome::kLsm;
  }
  if (accel_ != nullptr && accel_->DefinitelyAbsent(fp)) {
    if (outcome != nullptr) {
      *outcome = AccelOutcome::kBloomNegative;
    }
    return Status::NotFound("share not indexed (bloom)");
  }
  Bytes value;
  Status st = db_->Get(KeyFor(fp), &value);
  if (st.code() == StatusCode::kNotFound && accel_ != nullptr) {
    accel_->NoteBloomFalsePositive();
  }
  RETURN_IF_ERROR(st);
  return ShareIndexEntry::Deserialize(value);
}

Result<std::optional<ShareLocation>> ShareIndex::UserHasShare(const Fingerprint& fp,
                                                              UserId user,
                                                              AccelOutcome* outcome) {
  Result<ShareIndexEntry> entry = ReadEntry(fp, outcome);
  if (entry.status().code() == StatusCode::kNotFound) {
    return std::optional<ShareLocation>(std::nullopt);
  }
  RETURN_IF_ERROR(entry.status());
  auto it = entry->owners.find(user);
  if (it == entry->owners.end() || it->second == 0) {
    return std::optional<ShareLocation>(std::nullopt);
  }
  return std::optional<ShareLocation>(entry->location);
}

Result<std::optional<ShareLocation>> ShareIndex::Lookup(const Fingerprint& fp,
                                                        AccelOutcome* outcome) {
  Result<ShareIndexEntry> entry = ReadEntry(fp, outcome);
  if (entry.status().code() == StatusCode::kNotFound) {
    return std::optional<ShareLocation>(std::nullopt);
  }
  RETURN_IF_ERROR(entry.status());
  return std::optional<ShareLocation>(entry->location);
}

void ShareIndex::StageInserts(
    const std::vector<std::pair<Fingerprint, ShareLocation>>& entries, WriteBatch* batch) {
  for (const auto& [fp, location] : entries) {
    ShareIndexEntry entry;
    entry.location = location;
    batch->Put(KeyFor(fp), entry.Serialize());
    // Bloom add precedes the commit: a reader must never find the key in
    // the LSM while the bloom still denies it. (A failed commit leaves a
    // harmless stale bloom positive.)
    if (accel_ != nullptr) {
      accel_->NoteInsert(fp);
    }
  }
}

Status ShareIndex::InsertBatch(
    const std::vector<std::pair<Fingerprint, ShareLocation>>& entries) {
  WriteBatch batch;
  StageInserts(entries, &batch);
  return db_->Write(batch);
}

Status ShareIndex::PutEntries(
    const std::vector<std::pair<Fingerprint, ShareIndexEntry>>& entries) {
  WriteBatch batch;
  for (const auto& [fp, entry] : entries) {
    batch.Put(KeyFor(fp), entry.Serialize());
    if (accel_ != nullptr) {
      accel_->NoteInsert(fp);
    }
  }
  return db_->Write(batch);
}

Status ShareIndex::StageReferences(const std::vector<Fingerprint>& add,
                                   const std::vector<Fingerprint>& drop, UserId user,
                                   bool skip_unknown_drops, WriteBatch* batch,
                                   ReferenceDelta* delta) {
  // Net reference delta per distinct fingerprint.
  std::unordered_map<Fingerprint, int64_t, FingerprintHash> net;
  for (const Fingerprint& fp : add) {
    ++net[fp];
  }
  for (const Fingerprint& fp : drop) {
    --net[fp];
  }
  std::unordered_set<Fingerprint, FingerprintHash> added(add.begin(), add.end());

  *delta = ReferenceDelta{};
  for (const auto& [fp, d] : net) {
    Result<ShareIndexEntry> read = ReadEntry(fp, nullptr);
    if (read.status().code() == StatusCode::kNotFound) {
      if (added.count(fp) > 0) {
        return Status::FailedPrecondition("recipe references unknown share " +
                                          FingerprintAbbrev(fp));
      }
      if (skip_unknown_drops) {
        continue;  // stale fingerprint from the replaced file: nothing to drop
      }
      return Status::FailedPrecondition("user holds no reference to share " +
                                        FingerprintAbbrev(fp));
    }
    RETURN_IF_ERROR(read.status());
    ShareIndexEntry entry = std::move(read).value();
    if (entry.owners.empty() && added.count(fp) > 0) {
      // First reference ever (the share was stored by UploadShares but not
      // yet claimed by any generation): this file's unique contribution.
      delta->first_ref_bytes += entry.location.share_size;
    }
    int64_t refs = static_cast<int64_t>(entry.owners[user]) + d;
    if (refs < 0) {
      return Status::FailedPrecondition("user holds fewer references than dropped to share " +
                                        FingerprintAbbrev(fp));
    }
    if (refs > 0) {
      entry.owners[user] = static_cast<uint32_t>(refs);
    } else {
      entry.owners.erase(user);
    }
    if (entry.owners.empty() && added.count(fp) == 0) {
      // A drop took the last reference: erase the entry so GC sees the
      // share as dead (the bloom keeps a stale positive). Entries named by
      // `add` are never erased: the new recipe references them.
      ++delta->orphaned;
      delta->orphaned_bytes += entry.location.share_size;
      batch->Delete(KeyFor(fp));
    } else {
      batch->Put(KeyFor(fp), entry.Serialize());
    }
  }
  return Status::Ok();
}

Status ShareIndex::StageLocation(const Fingerprint& fp, const ShareLocation& location,
                                 WriteBatch* batch) {
  ASSIGN_OR_RETURN(ShareIndexEntry entry, ReadEntry(fp, nullptr));
  entry.location = location;
  batch->Put(KeyFor(fp), entry.Serialize());
  return Status::Ok();
}

Status ShareIndex::ForEach(
    const std::function<void(const Fingerprint&, const ShareIndexEntry&)>& fn) {
  auto it = db_->NewIterator();
  Bytes prefix = {kPrefix};
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    const Bytes& key = it->key();
    if (key.empty() || key[0] != kPrefix) {
      break;
    }
    Fingerprint fp(key.begin() + 1, key.end());
    ASSIGN_OR_RETURN(ShareIndexEntry entry, ShareIndexEntry::Deserialize(it->value()));
    fn(fp, entry);
  }
  return it->status();
}

Status ShareIndex::ForEachFingerprint(const std::function<void(const Fingerprint&)>& fn) {
  auto it = db_->NewIterator();
  Bytes prefix = {kPrefix};
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    const Bytes& key = it->key();
    if (key.empty() || key[0] != kPrefix) {
      break;
    }
    fn(Fingerprint(key.begin() + 1, key.end()));
  }
  return it->status();
}

Result<uint64_t> ShareIndex::UniqueShareCount() {
  uint64_t count = 0;
  auto it = db_->NewIterator();
  Bytes prefix = {kPrefix};
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    if (it->key().empty() || it->key()[0] != kPrefix) {
      break;
    }
    ++count;
  }
  RETURN_IF_ERROR(it->status());
  return count;
}

}  // namespace cdstore
