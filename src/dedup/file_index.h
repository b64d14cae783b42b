// The file index (§4.4), versioned: one path owns an ordered series of
// backup generations (the paper's weekly snapshots, §5.2), each pointing
// at its own recipe in the recipe-container store. Keyed by the hash of
// (user id, encoded pathname); generation records live under a separate
// prefix so path enumeration stays cheap.
//
// Layout in the LSM KV store:
//   'F' || user || H(path_key)              -> PathHead {next/latest/count,
//                                              path_id + name share}
//   'G' || user || H(path_key) || gen (BE)  -> GenerationRecord
//
// The head keyspace of one user is contiguous and ordered by H(path_key),
// which makes namespace enumeration a bounded prefix scan: ScanPaths pages
// through it with a resume cursor (the last head's hash), so a reply frame
// never has to carry the whole namespace. Every call is keyed by
// H(path_key): the server hashes a request's path_key once and a scan hands
// the same hash back.
#ifndef CDSTORE_SRC_DEDUP_FILE_INDEX_H_
#define CDSTORE_SRC_DEDUP_FILE_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/util/status.h"

namespace cdstore {

// One backup generation of a path.
struct GenerationRecord {
  uint64_t generation_id = 0;  // allocated by StageAppendGeneration, never reused
  uint64_t file_size = 0;      // logical bytes of this generation
  uint64_t num_secrets = 0;
  uint64_t recipe_container_id = 0;
  uint32_t recipe_index = 0;
  // Share bytes whose first reference came from this generation — the
  // per-generation "new physical data" the dedup ratio divides by.
  uint64_t unique_bytes = 0;
  uint64_t timestamp_ms = 0;  // client backup time (retention windows)

  Bytes Serialize() const;
  static Result<GenerationRecord> Deserialize(ConstByteSpan data);
};

// Per-path bookkeeping: id allocation survives pruning (ids stay monotonic
// so clouds remain in lockstep), latest/count avoid a scan per lookup.
//
// On disk: the three counters (u64 each), a layout tag byte (1), then
// path_id and name_share as length-prefixed bytes and name_len as u32.
// Deserialize rejects any other layout with kCorruption.
struct PathHead {
  uint64_t next_generation = 1;
  uint64_t latest_generation = 0;  // 0 = no generations
  uint64_t generation_count = 0;
  // Namespace fields, written from the request on every write:
  //   path_id    — client-derived id, identical on every cloud, so a client
  //                can match one path's listing entries across clouds.
  //   name_share — this cloud's share of the dispersed pathname (§4.3: no
  //                single cloud learns the name; k shares reconstruct it).
  //   name_len   — byte length of the cleartext name, needed to strip the
  //                dispersal padding on decode. The share's size already
  //                bounds the length, so storing it leaks nothing new.
  Bytes path_id;
  Bytes name_share;
  uint32_t name_len = 0;

  Bytes Serialize() const;
  static Result<PathHead> Deserialize(ConstByteSpan data);
};

// The namespace fields of a PutFile, stored in the path head by every write
// so this cloud can later enumerate the path back to a client. `name_share`
// is the request's path_key (this cloud's share of the dispersed name).
struct PathNameInfo {
  ConstByteSpan name_share;
  ConstByteSpan path_id;
  uint32_t name_len = 0;
};

// One head from a namespace scan. `path_hash` is the head key's H(path_key)
// suffix — the scan cursor, and the key every other FileIndex call takes.
struct PathScanEntry {
  Bytes path_hash;
  PathHead head;
};

struct PathScanPage {
  std::vector<PathScanEntry> entries;
  // Resume cursor: pass to the next ScanPaths call. Empty = namespace
  // exhausted. Paths created or deleted between pages are handled by the
  // cursor being a key position, not an offset: survivors are neither
  // skipped nor duplicated.
  Bytes next_cursor;
};

class FileIndex {
 public:
  explicit FileIndex(Db* db);

  // `path_hash` is H(path_key), where path_key is the encoded pathname
  // share this server received (§4.3 disperses sensitive metadata via
  // secret sharing).

  // The writers below stage into the caller's `batch` and write nothing:
  // the server commits a whole RPC's index change, reference counts and
  // counters included, as one Db::Write. Each reads the committed path
  // head, so one batch may stage at most one of them per path.

  // Stages a new generation (allocates the next id from the path head).
  // `rec.generation_id` is ignored on input; the staged record (with its
  // id) is returned. *new_path is set when this creates the path. The head
  // takes its namespace fields from `name`.
  Result<GenerationRecord> StageAppendGeneration(UserId user, ConstByteSpan path_hash,
                                                 const PathNameInfo& name,
                                                 const GenerationRecord& rec, WriteBatch* batch,
                                                 bool* new_path);

  // Stages generation `rec.generation_id` exactly (repair: ids must stay
  // in lockstep across clouds). Overwrites a same-id record in place;
  // *new_path as above, *new_generation is set when the id did not exist
  // yet. next_generation advances past the written id.
  Status StagePutGeneration(UserId user, ConstByteSpan path_hash, const PathNameInfo& name,
                            const GenerationRecord& rec, WriteBatch* batch, bool* new_path,
                            bool* new_generation);

  // Stages the removal of the records `doomed` of one path, whose
  // surviving generations are `kept`: the head's count and latest id are
  // computed from `kept`, so one call covers any number of generations.
  // With nothing kept the head goes too. Both lists are ascending, as
  // ListGenerations returns them. On failure nothing is staged.
  Status StageDeleteGenerations(UserId user, ConstByteSpan path_hash,
                                const std::vector<GenerationRecord>& doomed,
                                const std::vector<GenerationRecord>& kept, WriteBatch* batch);

  // Fetches one generation; generation == 0 resolves the latest.
  Result<GenerationRecord> GetGeneration(UserId user, ConstByteSpan path_hash,
                                         uint64_t generation);

  // All generations of a path, ascending by id. NotFound for unknown paths.
  Result<std::vector<GenerationRecord>> ListGenerations(UserId user, ConstByteSpan path_hash);

  // One page of the user's path heads, in H(path_key) order, starting
  // strictly after `cursor` (empty = from the beginning), at most `limit`
  // entries. `limit` must be nonzero.
  Result<PathScanPage> ScanPaths(UserId user, ConstByteSpan cursor, size_t limit);

 private:
  Bytes HeadKeyForHash(UserId user, ConstByteSpan path_hash) const;
  Bytes GenKeyForHash(UserId user, ConstByteSpan path_hash, uint64_t generation) const;
  Result<std::optional<PathHead>> GetHead(UserId user, ConstByteSpan path_hash);

  Db* db_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_DEDUP_FILE_INDEX_H_
