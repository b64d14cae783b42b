// Write-ahead log: length-prefixed, CRC32C-protected records, one per write
// batch. Replay tolerates a truncated/corrupted tail (the records after the
// corruption are discarded, as LevelDB does on crash recovery).
#ifndef CDSTORE_SRC_KVSTORE_WAL_H_
#define CDSTORE_SRC_KVSTORE_WAL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "src/kvstore/record.h"
#include "src/util/status.h"

namespace cdstore {

class WalWriter {
 public:
  ~WalWriter();

  // Opens for append (creating if needed).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path);

  // Appends one batch with its starting sequence number.
  Status Append(uint64_t first_seq, const WriteBatch& batch, bool sync);

  Status Close();

 private:
  explicit WalWriter(std::FILE* f) : file_(f) {}
  std::FILE* file_;
};

// Replays every intact record: calls `apply(first_seq, batch)` in order.
// Returns the highest sequence number seen (0 if none). Corrupted or
// truncated tail records end replay silently; corruption in the middle is
// also cut off there (data after it is unreachable anyway). When
// `intact_bytes` is non-null it receives the offset just past the last
// intact record: a writer must truncate the log there before appending,
// or every later record would sit behind the bad one and never replay.
Result<uint64_t> ReplayWal(const std::string& path,
                           const std::function<void(uint64_t, const WriteBatch&)>& apply,
                           uint64_t* intact_bytes = nullptr);

// Serialization shared with tests.
Bytes EncodeBatch(uint64_t first_seq, const WriteBatch& batch);
Status DecodeBatch(ConstByteSpan payload, uint64_t* first_seq, WriteBatch* batch);

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_WAL_H_
