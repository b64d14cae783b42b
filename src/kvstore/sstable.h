// Sorted string table: the immutable on-disk level of the LSM tree.
//
// File layout:
//   [data block | crc32c]...  records in internal order, ~block_size each
//   [bloom filter | crc32c]   over user keys
//   [index block | crc32c]    (last_key, offset, length) per data block
//   [footer, 48 bytes]        offsets + entry count + magic
#ifndef CDSTORE_SRC_KVSTORE_SSTABLE_H_
#define CDSTORE_SRC_KVSTORE_SSTABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kvstore/block_cache.h"
#include "src/kvstore/bloom.h"
#include "src/kvstore/options.h"
#include "src/kvstore/record.h"
#include "src/util/status.h"

namespace cdstore {

inline constexpr uint64_t kSsTableMagic = 0xCD5704B1E57AB1E5ull;

// Streams records (which must arrive in internal order) into an SSTable
// file.
class SsTableBuilder {
 public:
  explicit SsTableBuilder(const DbOptions& options);

  void Add(const RecordView& record);

  // Writes the finished table to `path`. Returns the number of records.
  Result<uint64_t> Finish(const std::string& path);

 private:
  void FlushBlock();

  DbOptions opts_;
  Bytes file_;                // whole table image built in memory
  Bytes current_block_;
  Bytes current_last_key_;
  // Previous record, for enforcing internal ordering in debug builds.
  Bytes prev_key_;
  uint64_t prev_seq_ = 0;
  bool have_prev_ = false;
  struct IndexEntry {
    Bytes last_key;
    uint64_t offset;
    uint64_t length;
  };
  std::vector<IndexEntry> index_;
  std::vector<Bytes> keys_for_bloom_;
  uint64_t entry_count_ = 0;
};

// Read-only handle to an SSTable. Thread-safe: Get and any number of
// iterators may run concurrently without external locking (data blocks are
// read with pread(2), and the block cache has its own lock). Closing the
// table drops its blocks from the cache, so the cache must outlive it.
class SsTable {
 public:
  ~SsTable();

  // `cache` may be null (no caching). `file_number` keys the cache.
  static Result<std::unique_ptr<SsTable>> Open(const std::string& path, uint64_t file_number,
                                               BlockCache* cache);

  // Looks up the newest version of `key` with seq <= snapshot_seq, decoding
  // records in place from the pinned block; only a matched value is copied.
  // On return: *found tells whether any version was seen; *tombstone tells
  // whether that version was a delete. kCorruption/kIOError when a block on
  // the probe path fails its checksum, its read or its decode.
  Status Get(ConstByteSpan key, uint64_t snapshot_seq, Bytes* value, bool* found,
             bool* tombstone) const;

  uint64_t file_number() const { return file_number_; }
  uint64_t entry_count() const { return entry_count_; }

  // Ordered scan over all versions. The table must outlive the iterator.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    // Views into the pinned current block: valid until the next move.
    const RecordView& record() const { return current_; }
    // Not OK once a block read, checksum or record decode failed; the
    // iterator is then invalid, which must not be taken for end-of-data.
    // Sticky: a later seek does not clear it.
    const Status& status() const { return status_; }
    void Next();
    void SeekToFirst();
    void Seek(ConstByteSpan target);

   private:
    friend class SsTable;
    explicit Iterator(const SsTable* table) : table_(table) {}
    // Pins block `block_idx` and decodes its first record.
    bool LoadBlock(size_t block_idx);
    // Decodes the record at pos_ of the pinned block into current_.
    bool DecodeCurrent();

    const SsTable* table_;
    size_t block_idx_ = 0;
    std::shared_ptr<const Bytes> block_;
    size_t pos_ = 0;  // offset of the record after current_
    RecordView current_;
    bool valid_ = false;
    Status status_;
  };

  Iterator NewIterator() const { return Iterator(this); }

 private:
  SsTable() = default;

  // Reads [offset, offset + length) plus its trailing crc32c and verifies it.
  Result<Bytes> ReadVerified(uint64_t offset, uint64_t length) const;
  // Data block `block_idx`, pinned: a cache hit copies nothing; a miss is
  // read and CRC-checked before it is cached.
  Result<std::shared_ptr<const Bytes>> ReadBlock(size_t block_idx) const;
  // Index of the first block whose last_key >= key, or index_.size().
  size_t FindBlockFor(ConstByteSpan key) const;

  int fd_ = -1;
  uint64_t file_number_ = 0;
  uint64_t entry_count_ = 0;
  BlockCache* cache_ = nullptr;
  BloomFilter bloom_{0, 10};
  struct IndexEntry {
    Bytes last_key;
    uint64_t offset;
    uint64_t length;
  };
  std::vector<IndexEntry> index_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_SSTABLE_H_
