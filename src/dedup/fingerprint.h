// Share/chunk fingerprints (§3.3): SHA-256 of content. Collisions of two
// different chunks are cryptographically negligible [15], so fingerprint
// equality is treated as content equality.
#ifndef CDSTORE_SRC_DEDUP_FINGERPRINT_H_
#define CDSTORE_SRC_DEDUP_FINGERPRINT_H_

#include <cstring>
#include <string>

#include "src/util/bytes.h"

namespace cdstore {

using Fingerprint = Bytes;  // 32 bytes

inline constexpr size_t kFingerprintSize = 32;

// Hasher for unordered containers keyed by Fingerprint: SHA-256 output is
// uniformly distributed, so the first 8 bytes are already an ideal hash.
struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    uint64_t v = 0;
    std::memcpy(&v, fp.data(), fp.size() < 8 ? fp.size() : 8);
    return static_cast<size_t>(v);
  }
};

// The share-index stripe a fingerprint hashes to: the server's stripe
// lock for that fingerprint. `mask` = stripe_count - 1 (a power of two);
// the uniform SHA-256 prefix balances any such count.
inline size_t StripeOfFingerprint(const Fingerprint& fp, size_t mask) {
  return fp.empty() ? 0 : (FingerprintHash{}(fp) & mask);
}

// Users of the organization are identified by opaque 64-bit ids.
using UserId = uint64_t;

// SHA-256 of `data`.
Fingerprint FingerprintOf(ConstByteSpan data);

// Short human-readable prefix ("a1b2c3d4…") for logs.
std::string FingerprintAbbrev(const Fingerprint& fp);

}  // namespace cdstore

#endif  // CDSTORE_SRC_DEDUP_FINGERPRINT_H_
