#include "src/kvstore/bloom.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace cdstore {

uint64_t Hash64(ConstByteSpan data, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  // Final avalanche (splitmix64 finalizer).
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

BloomFilter::BloomFilter(size_t expected_keys, int bits_per_key) {
  size_t bits = std::max<size_t>(64, expected_keys * static_cast<size_t>(bits_per_key));
  bits_.assign((bits + 7) / 8, 0);
  // k = ln2 * bits/keys, clamped to [1, 30].
  num_probes_ = static_cast<int>(bits_per_key * 0.69);
  num_probes_ = std::clamp(num_probes_, 1, 30);
}

BloomFilter BloomFilter::Deserialize(ConstByteSpan data) {
  BloomFilter f;
  if (data.empty()) {
    f.num_probes_ = 1;
    f.bits_.assign(8, 0);
    return f;
  }
  f.num_probes_ = std::clamp<int>(data[0], 1, 30);
  f.bits_.assign(data.begin() + 1, data.end());
  if (f.bits_.empty()) {
    f.bits_.assign(8, 0);
  }
  return f;
}

void BloomFilter::Add(ConstByteSpan key) {
  uint64_t h = Hash64(key);
  uint64_t delta = (h >> 33) | (h << 31);  // double hashing
  size_t nbits = bits_.size() * 8;
  for (int i = 0; i < num_probes_; ++i) {
    size_t bit = h % nbits;
    bits_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    h += delta;
  }
}

bool BloomFilter::MayContain(ConstByteSpan key) const {
  uint64_t h = Hash64(key);
  uint64_t delta = (h >> 33) | (h << 31);
  size_t nbits = bits_.size() * 8;
  for (int i = 0; i < num_probes_; ++i) {
    size_t bit = h % nbits;
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) {
      return false;
    }
    h += delta;
  }
  return true;
}

Bytes BloomFilter::Serialize() const {
  Bytes out;
  out.reserve(1 + bits_.size());
  out.push_back(static_cast<uint8_t>(num_probes_));
  out.insert(out.end(), bits_.begin(), bits_.end());
  return out;
}

}  // namespace cdstore
