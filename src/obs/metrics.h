// Low-overhead metrics for the live system (the observability substrate the
// ROADMAP's heavy-traffic front end needs: per-tenant, per-RPC p50/p99 from
// a running server, not an offline bench). Three instrument kinds:
//
//   Counter    monotonically increasing count, core-sharded atomics
//   Gauge      instantaneous level (queue depth, inflight RPCs)
//   Histogram  fixed-bucket latency/size distribution, core-sharded
//
// Recording is lock-free on hot paths: Inc/Observe touch only relaxed
// atomics in a cache-line-padded per-core shard, so concurrent encode
// workers and RPC threads never contend on a metric. Shards are merged at
// scrape time (Snapshot / PrometheusText), which is the only place a lock
// exists — the registry's SharedMutex guarding the name -> instrument map.
//
// Instruments are owned by a MetricRegistry and live as long as it does;
// callers cache the returned pointers and record through them. Naming
// convention (see src/obs/README.md): cdstore_<layer>_<name>, with
// histogram series exposed as <name>_bucket / _sum / _count.
#ifndef CDSTORE_SRC_OBS_METRICS_H_
#define CDSTORE_SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/sync.h"

namespace cdstore {

// Shard count for sharded instruments. A small power of two: enough to keep
// a dozen recording threads off each other's cache lines without bloating
// every counter to kilobytes.
inline constexpr uint32_t kMetricShards = 16;

namespace obs_internal {

// The calling thread's home shard: assigned round-robin on first use, so up
// to kMetricShards recording threads get private cache lines.
inline uint32_t CurrentShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

struct alignas(64) ShardCell {
  std::atomic<uint64_t> v{0};
};

}  // namespace obs_internal

// Monotonic counter. Inc is one relaxed fetch_add on the caller's shard.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t delta = 1) {
    shards_[obs_internal::CurrentShard()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  obs_internal::ShardCell shards_[kMetricShards];
};

// Instantaneous level. A single atomic: gauges are set from one place at a
// time (a queue under its own lock, a loop owner), so sharding buys nothing.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Merged view of one histogram at scrape time. `bounds` are the finite
// bucket upper bounds; `counts` has bounds.size() + 1 entries, the last
// being the +Inf overflow bucket.
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  uint64_t sum = 0;

  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // bucket holding the target rank; the +Inf bucket clamps to the largest
  // finite bound.
  double Quantile(double q) const;
};

// Fixed-bucket histogram over non-negative integer values (nanoseconds,
// bytes). Observe is two relaxed fetch_adds (bucket + sum) on the caller's
// shard; bucket bounds are immutable after construction, so no lock exists
// anywhere on the record path.
class Histogram {
 public:
  // `bounds` must be strictly increasing upper bounds; an implicit +Inf
  // bucket is appended. An empty `bounds` yields a count/sum-only series.
  explicit Histogram(std::vector<uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value) {
    size_t b = BucketOf(value);
    std::atomic<uint64_t>* shard = cells_.get() + obs_internal::CurrentShard() * stride_;
    shard[b].fetch_add(1, std::memory_order_relaxed);
    shard[num_buckets_].fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;
  const std::vector<uint64_t>& bounds() const { return bounds_; }

 private:
  size_t BucketOf(uint64_t value) const {
    // Binary search for the first bound >= value (bounds are inclusive
    // upper edges, matching Prometheus `le` semantics).
    size_t lo = 0;
    size_t hi = bounds_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (value <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  std::vector<uint64_t> bounds_;
  size_t num_buckets_;  // bounds_.size() + 1 (the +Inf bucket)
  size_t stride_;       // cells per shard, padded to whole cache lines
  std::unique_ptr<std::atomic<uint64_t>[]> cells_;
};

// `start * factor^i` for i in [0, count): the standard log-spaced ladder
// for latency and size buckets.
std::vector<uint64_t> ExponentialBuckets(uint64_t start, double factor, int count);

// Shared default ladders: 1us .. ~1000s for latencies (nanoseconds), and
// 64B .. ~4GB for sizes (bytes).
const std::vector<uint64_t>& LatencyBucketsNs();
const std::vector<uint64_t>& SizeBuckets();

// Sorted (key, value) label pairs distinguishing series of one metric name
// (e.g. {{"rpc", "FpQuery"}} or {{"user", "7"}}).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// One scraped series, as carried by the GetMetrics RPC and rendered into
// the Prometheus text format. Counter/gauge use `value`; histograms use
// count/sum/bounds/bucket_counts.
struct MetricSample {
  enum Kind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

  std::string name;
  MetricLabels labels;
  uint8_t kind = kCounter;
  int64_t value = 0;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> bucket_counts;  // bounds.size() + 1; last is +Inf
};

// Renders samples in the Prometheus text exposition format (one # TYPE line
// per family, `le` labels on _bucket series, cumulative bucket counts).
// Deterministic: samples render in the order given, and Snapshot() returns
// them sorted by name + labels.
std::string PrometheusText(const std::vector<MetricSample>& samples);

// Named instrument registry. Get* returns the existing instrument when
// (name, labels) is already registered — lookups take the SharedMutex in
// shared mode, creation upgrades to exclusive — so callers anywhere in the
// process share series by name. Returned pointers are stable for the
// registry's lifetime; cache them and record lock-free.
class MetricRegistry {
 public:
  MetricRegistry();  // out of line: Entry is incomplete here
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;
  ~MetricRegistry();

  Counter* GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {});
  // `bounds` is used only on first registration; later callers get the
  // existing histogram whatever bounds they pass.
  Histogram* GetHistogram(const std::string& name, const MetricLabels& labels,
                          const std::vector<uint64_t>& bounds);

  // Merged view of every registered series, sorted by name + labels.
  std::vector<MetricSample> Snapshot() const;
  // Snapshot rendered as Prometheus text — the GET /metrics payload.
  std::string PrometheusText() const;

 private:
  struct Entry;
  Entry* GetOrCreate(const std::string& name, const MetricLabels& labels, uint8_t kind,
                     const std::vector<uint64_t>& bounds);

  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

// RAII latency recorder: observes the elapsed nanoseconds into `hist` on
// destruction. Null-safe, so metrics-off call sites cost one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Observe(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                               std::chrono::steady_clock::now() - start_)
                                               .count()));
    }
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// --- unified measurement helpers -----------------------------------------
// Welford online mean / sample standard deviation: the bench-side
// accumulator, promoted here so the benches and the live-metrics subsystem
// share one measurement library. Not thread-safe; benches record
// single-threaded.
class RunningStats {
 public:
  void Add(double x);
  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_OBS_METRICS_H_
