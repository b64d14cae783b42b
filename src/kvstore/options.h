// Tuning knobs for the LSM key-value store backing CDStore's file and share
// indices (§4.4).
#ifndef CDSTORE_SRC_KVSTORE_OPTIONS_H_
#define CDSTORE_SRC_KVSTORE_OPTIONS_H_

#include <cstddef>

namespace cdstore {

struct DbOptions {
  // Memtable flush threshold.
  size_t write_buffer_size = 1 << 20;  // 1 MB
  // Target uncompressed data block size inside SSTables.
  size_t block_size = 4 * 1024;
  // Full compaction is triggered when this many SSTables accumulate.
  int compaction_trigger = 4;
  // fsync the WAL after every write batch (durability vs throughput).
  bool sync_wal = false;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_KVSTORE_OPTIONS_H_
