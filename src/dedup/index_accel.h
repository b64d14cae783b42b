// Dedup lookup acceleration: a per-stripe negative-lookup filter in front
// of ShareIndex's LSM, so the overwhelmingly common NEW-fingerprint case of
// a backup upload answers "definitely absent" in one hash + a few relaxed
// atomic loads instead of a key-value store read.
//
// Each stripe owns one AtomicBloomFilter (lock-free). The filters are
// rebuilt from an index scan at startup and maintained on every insert.
// False positives fall through to the LSM. False negatives cannot happen,
// because a fingerprint enters the bloom BEFORE its LSM commit (a failed
// commit leaves a harmless stale positive, as does an erase — the filter
// never forgets). That is the whole exactness contract: a dedup decision
// with the accel attached is byte-identical to one without it, and since
// the accel holds no copy of any entry, readers need no lock to stay exact.
//
// Instrumentation: internal relaxed-atomic counters are always on (benches
// and tests read exact numbers via stats()); when a MetricRegistry is
// supplied the same events mirror into the cdstore_dedup_* families
// documented in src/obs/README.md.
#ifndef CDSTORE_SRC_DEDUP_INDEX_ACCEL_H_
#define CDSTORE_SRC_DEDUP_INDEX_ACCEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/bloom.h"
#include "src/obs/metrics.h"

namespace cdstore {

struct DedupAccelOptions {
  // Must equal the server's share-index stripe count (a power of two):
  // blooms are per-stripe so maintenance stays stripe-local.
  size_t stripes = 16;
  // Negative-filter density. 10 bits/key ≈ 1% false positives at the
  // sized capacity.
  int bloom_bits_per_key = 10;
  // Blooms are sized for max(per-stripe indexed count * headroom,
  // min capacity) keys, so a store that keeps growing after startup
  // degrades gradually instead of immediately.
  double bloom_headroom = 2.0;
  size_t bloom_min_capacity_per_stripe = 4096;
  // Optional mirroring into the live metrics plane. Not owned.
  MetricRegistry* metrics = nullptr;
};

// Exact event counts since construction (relaxed atomics, always on).
struct DedupAccelStats {
  uint64_t bloom_negative = 0;        // reads answered "definitely absent"
  uint64_t bloom_maybe = 0;           // reads that fell through the bloom
  uint64_t bloom_false_positive = 0;  // ...and then missed the LSM anyway
  uint64_t inserts = 0;               // fingerprints added to the blooms
  uint64_t rebuild_keys = 0;          // fingerprints seen by the startup scan
  uint64_t rebuild_ns = 0;            // wall time of that scan
  uint64_t bloom_bytes = 0;           // filter memory across stripes
};

class DedupIndexAccel {
 public:
  // Builds the accel for an existing index: scans it once to size the
  // per-stripe blooms (count pass), then again to populate them (add
  // pass). The elapsed time lands in stats().rebuild_ns — the cold-start
  // cost bench_dedup_index reports. The caller attaches the result via
  // ShareIndex::AttachAccel; `index` is only used during the scan.
  static Result<std::unique_ptr<DedupIndexAccel>> Build(ShareIndex* index,
                                                        const DedupAccelOptions& options);

  DedupIndexAccel(const DedupIndexAccel&) = delete;
  DedupIndexAccel& operator=(const DedupIndexAccel&) = delete;

  // --- read path (lock-free; called by ShareIndex before any LSM read) ---
  // True iff the fingerprint can be proven absent without a store read.
  // Counts bloom_negative / bloom_maybe.
  bool DefinitelyAbsent(const Fingerprint& fp);
  // A bloom "maybe" that the LSM then answered NotFound.
  void NoteBloomFalsePositive();

  // --- write path (ShareIndex mutations) --------------------------------
  // Marks a fingerprint as (about to be) indexed. MUST be called before
  // the LSM commit so readers can never see an indexed fingerprint the
  // bloom denies.
  void NoteInsert(const Fingerprint& fp);

  DedupAccelStats stats() const;
  // Filter memory across stripes, the "accel bytes per fingerprint"
  // denominator's numerator.
  uint64_t memory_bytes() const;
  size_t stripe_count() const { return blooms_.size(); }

 private:
  explicit DedupIndexAccel(const DedupAccelOptions& options);

  DedupAccelOptions options_;
  size_t stripe_mask_;
  std::vector<std::unique_ptr<AtomicBloomFilter>> blooms_;

  // Always-on exact counters (relaxed; merged in stats()).
  std::atomic<uint64_t> bloom_negative_{0};
  std::atomic<uint64_t> bloom_maybe_{0};
  std::atomic<uint64_t> bloom_false_positive_{0};
  std::atomic<uint64_t> inserts_{0};
  uint64_t rebuild_keys_ = 0;
  uint64_t rebuild_ns_ = 0;

  // Registry mirrors (null = metrics off), resolved once at construction.
  struct Mirror {
    Counter* bloom_negative = nullptr;
    Counter* bloom_maybe = nullptr;
    Counter* bloom_false_positive = nullptr;
    Counter* inserts = nullptr;
    Gauge* bloom_bytes = nullptr;
    Gauge* bloom_keys = nullptr;
    Gauge* rebuild_ms = nullptr;
  };
  Mirror mirror_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_DEDUP_INDEX_ACCEL_H_
