// LRU cache under one mutex for SSTable data blocks, keyed by (file number,
// block offset). LevelDB's block cache equivalent (§4.4). The container
// store reuses it for sealed container images, keyed (container id, 0).
#ifndef CDSTORE_SRC_KVSTORE_BLOCK_CACHE_H_
#define CDSTORE_SRC_KVSTORE_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "src/util/bytes.h"
#include "src/util/sync.h"

namespace cdstore {

class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes);

  // Returns the cached block or nullptr. The block stays valid while the
  // caller holds the pointer, even if it is evicted meanwhile.
  std::shared_ptr<const Bytes> Lookup(uint64_t file_number, uint64_t offset);

  // Inserts (replacing any existing entry); evicts LRU entries over capacity.
  // Returns the inserted block, pinned (also when the capacity is 0 and
  // nothing is cached).
  std::shared_ptr<const Bytes> Insert(uint64_t file_number, uint64_t offset, Bytes block);

  // Drops all blocks of a file (when its table is closed).
  void EraseFile(uint64_t file_number);

  size_t usage_bytes() const;
  // Locked: these counters are written on every Lookup, so unlocked reads
  // raced against concurrent readers of the DB.
  uint64_t hits() const {
    MutexLock lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    MutexLock lock(mu_);
    return misses_;
  }

 private:
  struct Key {
    uint64_t file;
    uint64_t offset;
    bool operator==(const Key& o) const { return file == o.file && offset == o.offset; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file * 0x9e3779b97f4a7c15ull ^ k.offset);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Bytes> block;
  };

  mutable Mutex mu_;
  size_t capacity_;
  size_t usage_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_ GUARDED_BY(mu_);
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_BLOCK_CACHE_H_
