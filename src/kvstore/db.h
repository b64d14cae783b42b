// The LSM-tree key-value store backing CDStore's file and share indices
// (§4.4) — a from-scratch LevelDB substitute: WAL + skiplist memtable +
// SSTables with bloom filters and a block cache, full compaction, and
// sequence-number snapshots.
#ifndef CDSTORE_SRC_KVSTORE_DB_H_
#define CDSTORE_SRC_KVSTORE_DB_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/kvstore/block_cache.h"
#include "src/kvstore/memtable.h"
#include "src/kvstore/options.h"
#include "src/kvstore/record.h"
#include "src/kvstore/sstable.h"
#include "src/kvstore/wal.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace cdstore {

// Thread-safe. Writes, flushes and compactions serialize on one mutex.
// A Get or an iterator takes it only to pin the current memtable and table
// set (shared_ptrs), then reads them outside it; what it pinned stays alive
// and unchanged for it after a flush or compaction replaces them.
class Db {
 public:
  ~Db();

  // Opens (or creates) a database in directory `path`, replaying the WAL.
  static Result<std::unique_ptr<Db>> Open(const std::string& path, const DbOptions& options);

  Status Put(ConstByteSpan key, ConstByteSpan value);
  Status Delete(ConstByteSpan key);
  // Applies all ops atomically (one WAL record, consecutive seqs). Fails
  // only when the batch is not in the WAL. The first failed WAL append or
  // memtable flush is kept: every later Write, Flush and CompactAll
  // returns it until the Db is reopened (a flush that fails after its
  // batch was logged is reported by the next call).
  Status Write(const WriteBatch& batch);

  // Reads the latest visible version: every batch committed before the
  // call, and no part of one still being applied.
  Status Get(ConstByteSpan key, Bytes* value);
  // Reads as of a snapshot obtained from GetSnapshot().
  Status GetAt(uint64_t snapshot_seq, ConstByteSpan key, Bytes* value);

  // Sequence-number snapshots (§4.4 mentions LevelDB's snapshot feature).
  uint64_t GetSnapshot();
  void ReleaseSnapshot(uint64_t snapshot_seq);

  // Forces the memtable into an SSTable.
  Status Flush();
  // Merges all SSTables into one, dropping shadowed versions/tombstones not
  // needed by any live snapshot.
  Status CompactAll();

  // Iteration over live (visible, non-deleted) key/value pairs in key order.
  class Iterator {
   public:
    virtual ~Iterator() = default;
    virtual bool Valid() const = 0;
    virtual const Bytes& key() const = 0;
    virtual const Bytes& value() const = 0;
    virtual void Next() = 0;
    virtual void SeekToFirst() = 0;
    virtual void Seek(ConstByteSpan target) = 0;
    // Not OK when the scan stopped on a failed read, checksum or decode in
    // any source. Check it once Valid() turns false: a failed scan is
    // invalid too, and must not be taken for end-of-data.
    virtual Status status() const = 0;
  };
  // Snapshot 0 means "latest at creation time". The iterator pins the
  // memtable and SSTables current at creation: later writes, flushes and
  // compactions neither free nor change what it reads, and it may be used
  // while other threads write. It must be destroyed before the Db.
  std::unique_ptr<Iterator> NewIterator(uint64_t snapshot_seq = 0);

  // Introspection for tests/benchmarks.
  int sstable_count() const;
  uint64_t last_sequence() const;
  const BlockCache& block_cache() const { return cache_; }

 private:
  Db(std::string path, const DbOptions& options);

  Status WriteLocked(const WriteBatch& batch) REQUIRES(mu_);
  Status FlushLocked() REQUIRES(mu_);
  Status CompactAllLocked() REQUIRES(mu_);
  Status WriteManifestLocked() REQUIRES(mu_);
  Status LoadManifest();
  std::string SstPath(uint64_t file_number) const;
  std::string WalPath() const { return path_ + "/wal.log"; }
  std::string ManifestPath() const { return path_ + "/MANIFEST"; }

  std::string path_;
  DbOptions opts_;
  mutable Mutex mu_;
  BlockCache cache_;
  // Shared with the Gets and iterators that pinned them.
  std::shared_ptr<MemTable> mem_ GUARDED_BY(mu_);
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mu_);
  // Oldest first; lookups go newest first. Declared after cache_: a table
  // drops its blocks from the cache when it closes.
  std::vector<std::shared_ptr<SsTable>> tables_ GUARDED_BY(mu_);
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  uint64_t last_seq_ GUARDED_BY(mu_) = 0;
  std::multiset<uint64_t> snapshots_ GUARDED_BY(mu_);
  // The first WAL append or flush error. A failed append can leave a torn
  // record at the log's end, and a record appended after it would never
  // replay, so nothing is written until a reopen truncates the tail.
  Status bg_error_ GUARDED_BY(mu_);
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_DB_H_
