// Bloom filter over user keys, as LevelDB uses to avoid disk reads for
// absent keys [18]. Double hashing derives k probe positions from one
// 64-bit hash. Each SSTable builds one at flush time, serializes it into
// the table, and reads it before any block on a point lookup — the path
// that answers the share index's negative (new-fingerprint) lookups.
#ifndef CDSTORE_SRC_KVSTORE_BLOOM_H_
#define CDSTORE_SRC_KVSTORE_BLOOM_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace cdstore {

class BloomFilter {
 public:
  // Builds a filter sized for `expected_keys` at `bits_per_key`.
  BloomFilter(size_t expected_keys, int bits_per_key);
  // Reconstructs a filter from its serialized form.
  static BloomFilter Deserialize(ConstByteSpan data);

  void Add(ConstByteSpan key);
  // False positives possible; false negatives are not.
  bool MayContain(ConstByteSpan key) const;

  // [num_probes u8][bit array].
  Bytes Serialize() const;

  size_t bit_count() const { return bits_.size() * 8; }

 private:
  BloomFilter() = default;

  int num_probes_ = 1;
  Bytes bits_;
};

// 64-bit hash used by the filter and the block cache (FNV-1a with avalanche).
uint64_t Hash64(ConstByteSpan data, uint64_t seed = 0);

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_BLOOM_H_
