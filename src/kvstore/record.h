// Internal record representation shared by memtable, WAL and SSTables.
#ifndef CDSTORE_SRC_KVSTORE_RECORD_H_
#define CDSTORE_SRC_KVSTORE_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/bytes.h"

namespace cdstore {

enum class ValueType : uint8_t {
  kPut = 0,
  kDelete = 1,  // tombstone
};

// A record decoded in place: the spans view the memtable node or the pinned
// SSTable block holding it, so a view is only valid while that lives.
struct RecordView {
  ConstByteSpan key;
  uint64_t seq = 0;
  ValueType type = ValueType::kPut;
  ConstByteSpan value;
};

// A versioned record. Ordering: key ascending, then seq descending (newest
// version of a key sorts first).
struct KvRecord {
  Bytes key;
  uint64_t seq = 0;
  ValueType type = ValueType::kPut;
  Bytes value;

  RecordView view() const { return {key, seq, type, value}; }
};

// Three-way bytewise key comparison (the order of Bytes' operator<).
inline int CompareKeys(ConstByteSpan a, ConstByteSpan b) {
  size_t n = std::min(a.size(), b.size());
  int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  if (a.size() < b.size()) return -1;
  return a.size() > b.size() ? 1 : 0;
}

// Three-way comparison in internal order.
inline int CompareRecords(ConstByteSpan ak, uint64_t aseq, ConstByteSpan bk, uint64_t bseq) {
  if (int c = CompareKeys(ak, bk); c != 0) return c;
  if (aseq > bseq) return -1;  // newer first
  if (aseq < bseq) return 1;
  return 0;
}

// A batch of writes applied atomically with consecutive sequence numbers.
struct WriteBatch {
  struct Op {
    ValueType type;
    Bytes key;
    Bytes value;
  };
  std::vector<Op> ops;

  void Put(ConstByteSpan key, ConstByteSpan value) {
    ops.push_back({ValueType::kPut, Bytes(key.begin(), key.end()), Bytes(value.begin(), value.end())});
  }
  void Delete(ConstByteSpan key) {
    ops.push_back({ValueType::kDelete, Bytes(key.begin(), key.end()), {}});
  }
  void Clear() { ops.clear(); }
  size_t size() const { return ops.size(); }
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_RECORD_H_
