// In-memory write buffer of the LSM tree: a skiplist ordered by
// (key asc, seq desc), as in LevelDB's memtable [26, 44].
#ifndef CDSTORE_SRC_KVSTORE_MEMTABLE_H_
#define CDSTORE_SRC_KVSTORE_MEMTABLE_H_

#include <atomic>
#include <memory>

#include "src/kvstore/record.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cdstore {

// One writer at a time (Add is externally serialized), concurrent with any
// number of readers: the skiplist links are published with release stores
// and read with acquire loads (LevelDB's discipline), so a reader sees each
// node fully built or not at all.
class MemTable {
 public:
  MemTable();
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Inserts a versioned record (keys+seq pairs are unique by construction).
  // Not thread-safe against other Adds; safe against concurrent readers.
  void Add(uint64_t seq, ValueType type, ConstByteSpan key, ConstByteSpan value);

  // Looks up the newest version of `key` with seq <= snapshot_seq.
  // Returns kNotFound both for absent keys and for tombstones (the caller
  // distinguishes via `found_tombstone`).
  Status Get(ConstByteSpan key, uint64_t snapshot_seq, Bytes* value,
             bool* found_tombstone) const;

  // Writer-side counters: read them where Add is serialized.
  size_t ApproximateMemoryUsage() const { return mem_usage_; }
  size_t entry_count() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Ordered iteration over all versions (internal order).
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    const KvRecord& record() const;
    void Next();
    void SeekToFirst();
    // Positions at the first record with key >= target (any version).
    void Seek(ConstByteSpan target);

   private:
    friend class MemTable;
    explicit Iterator(const MemTable* table) : table_(table) {}
    const MemTable* table_;
    const void* node_ = nullptr;
  };

  Iterator NewIterator() const { return Iterator(this); }

 private:
  friend class Iterator;
  struct Node;
  static constexpr int kMaxHeight = 12;

  int RandomHeight();
  // Returns the first node >= (key, seq) in internal order; fills prev[]
  // when non-null.
  Node* FindGreaterOrEqual(ConstByteSpan key, uint64_t seq, Node** prev) const;

  Node* head_;
  // Relaxed: a reader that sees a new height before its links follows
  // head_'s still-null pointers down.
  std::atomic<int> height_{1};
  size_t mem_usage_ = 0;
  size_t count_ = 0;
  Rng rng_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_MEMTABLE_H_
