#include "src/dedup/index_accel.h"

#include <algorithm>
#include <chrono>

#include "src/util/logging.h"

namespace cdstore {

namespace {

size_t FloorPow2(size_t v) {
  size_t p = 1;
  while (p * 2 <= v) {
    p *= 2;
  }
  return p;
}

}  // namespace

DedupIndexAccel::DedupIndexAccel(const DedupAccelOptions& options) : options_(options) {
  size_t stripes = std::max<size_t>(1, FloorPow2(options_.stripes));
  CHECK(stripes == options_.stripes);  // the server resolves to a power of two
  stripe_mask_ = stripes - 1;
  if (options_.metrics != nullptr) {
    MetricRegistry* m = options_.metrics;
    mirror_.bloom_negative = m->GetCounter("cdstore_dedup_bloom_negative_total");
    mirror_.bloom_maybe = m->GetCounter("cdstore_dedup_bloom_maybe_total");
    mirror_.bloom_false_positive = m->GetCounter("cdstore_dedup_bloom_false_positive_total");
    mirror_.inserts = m->GetCounter("cdstore_dedup_bloom_inserts_total");
    mirror_.bloom_bytes = m->GetGauge("cdstore_dedup_bloom_bytes");
    mirror_.bloom_keys = m->GetGauge("cdstore_dedup_bloom_keys");
    mirror_.rebuild_ms = m->GetGauge("cdstore_dedup_rebuild_ms");
  }
}

Result<std::unique_ptr<DedupIndexAccel>> DedupIndexAccel::Build(
    ShareIndex* index, const DedupAccelOptions& options) {
  CHECK(index != nullptr);
  auto accel = std::unique_ptr<DedupIndexAccel>(new DedupIndexAccel(options));
  auto start = std::chrono::steady_clock::now();

  // Pass 1: per-stripe key counts, to size the blooms. Key-only scan — no
  // entry deserialization.
  std::vector<uint64_t> counts(accel->stripe_mask_ + 1, 0);
  uint64_t total = 0;
  RETURN_IF_ERROR(index->ForEachFingerprint([&](const Fingerprint& fp) {
    ++counts[StripeOfFingerprint(fp, accel->stripe_mask_)];
    ++total;
  }));

  accel->blooms_.reserve(counts.size());
  for (uint64_t count : counts) {
    size_t capacity = std::max<size_t>(
        options.bloom_min_capacity_per_stripe,
        static_cast<size_t>(static_cast<double>(count) * std::max(1.0, options.bloom_headroom)));
    accel->blooms_.push_back(
        std::make_unique<AtomicBloomFilter>(capacity, options.bloom_bits_per_key));
  }

  // Pass 2: populate. Adds bypass NoteInsert so rebuild keys don't count
  // as live inserts.
  RETURN_IF_ERROR(index->ForEachFingerprint([&](const Fingerprint& fp) {
    accel->blooms_[StripeOfFingerprint(fp, accel->stripe_mask_)]->Add(fp);
  }));

  accel->rebuild_keys_ = total;
  accel->rebuild_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  if (accel->mirror_.bloom_bytes != nullptr) {
    accel->mirror_.bloom_bytes->Set(static_cast<int64_t>(accel->memory_bytes()));
    accel->mirror_.bloom_keys->Set(static_cast<int64_t>(total));
    accel->mirror_.rebuild_ms->Set(static_cast<int64_t>(accel->rebuild_ns_ / 1000000));
  }
  return accel;
}

bool DedupIndexAccel::DefinitelyAbsent(const Fingerprint& fp) {
  if (blooms_[StripeOfFingerprint(fp, stripe_mask_)]->MayContain(fp)) {
    bloom_maybe_.fetch_add(1, std::memory_order_relaxed);
    if (mirror_.bloom_maybe != nullptr) {
      mirror_.bloom_maybe->Inc();
    }
    return false;
  }
  bloom_negative_.fetch_add(1, std::memory_order_relaxed);
  if (mirror_.bloom_negative != nullptr) {
    mirror_.bloom_negative->Inc();
  }
  return true;
}

void DedupIndexAccel::NoteBloomFalsePositive() {
  bloom_false_positive_.fetch_add(1, std::memory_order_relaxed);
  if (mirror_.bloom_false_positive != nullptr) {
    mirror_.bloom_false_positive->Inc();
  }
}

void DedupIndexAccel::NoteInsert(const Fingerprint& fp) {
  blooms_[StripeOfFingerprint(fp, stripe_mask_)]->Add(fp);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (mirror_.inserts != nullptr) {
    mirror_.inserts->Inc();
    mirror_.bloom_keys->Add(1);
  }
}

DedupAccelStats DedupIndexAccel::stats() const {
  DedupAccelStats s;
  s.bloom_negative = bloom_negative_.load(std::memory_order_relaxed);
  s.bloom_maybe = bloom_maybe_.load(std::memory_order_relaxed);
  s.bloom_false_positive = bloom_false_positive_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.rebuild_keys = rebuild_keys_;
  s.rebuild_ns = rebuild_ns_;
  s.bloom_bytes = memory_bytes();
  return s;
}

uint64_t DedupIndexAccel::memory_bytes() const {
  uint64_t total = 0;
  for (const auto& b : blooms_) {
    total += b->memory_bytes();
  }
  return total;
}

}  // namespace cdstore
