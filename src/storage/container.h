// Container format (§4.5): unique shares (or file recipes) are packed into
// ~4MB containers before hitting the storage backend, amortizing object-
// store I/O and preserving per-user spatial locality.
//
// Layout: [magic u32][count u32] [blob_0]...[blob_{n-1}]
//         [offset table: (offset u32, length u32) x count] [crc32c u32]
#ifndef CDSTORE_SRC_STORAGE_CONTAINER_H_
#define CDSTORE_SRC_STORAGE_CONTAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace cdstore {

inline constexpr uint32_t kContainerMagic = 0xCD57C041;
inline constexpr size_t kDefaultContainerCapacity = 4 << 20;  // 4MB (§4.5)

// Accumulates blobs until sealed.
class ContainerBuilder {
 public:
  ContainerBuilder() = default;

  // Appends a blob; returns its index within the container.
  uint32_t Add(ConstByteSpan blob);

  uint32_t count() const { return static_cast<uint32_t>(lengths_.size()); }
  // Payload bytes so far (excluding framing).
  size_t payload_size() const { return payload_.size(); }
  bool empty() const { return lengths_.empty(); }

  // View of an already-added blob (reads from a still-open container).
  Result<ConstByteSpan> BlobAt(uint32_t index) const;

  // Serializes the container image without consuming the builder, so a
  // caller whose backend write fails can retry the seal later.
  Bytes Image() const;
  // Drops the accumulated blobs (after the image reached the backend).
  void Reset();
  // Serializes the container image and resets the builder.
  Bytes Seal() {
    Bytes image = Image();
    Reset();
    return image;
  }

 private:
  Bytes payload_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> lengths_;
};

// Read-only view over a pinned container image. Constant-time to build:
// Blob(i) reads entry i of the offset table in place and bounds-checks it,
// so a cached image is never re-parsed or copied.
class ContainerReader {
 public:
  // Verify, then View: for an image read back from a backend.
  static Result<ContainerReader> Parse(Bytes image);
  // Checks the trailing CRC-32C. Every image read from a backend passes
  // this before anything uses or caches it.
  static Status Verify(ConstByteSpan image);
  // Views an image this process built or already verified: checks the
  // header and the table size, not the CRC.
  static Result<ContainerReader> View(std::shared_ptr<const Bytes> image);

  uint32_t count() const { return count_; }
  Result<ConstByteSpan> Blob(uint32_t index) const;

 private:
  ContainerReader() = default;
  std::shared_ptr<const Bytes> image_;
  uint32_t count_ = 0;
  size_t table_offset_ = 0;  // the payload ends and the offset table starts here
};

// Object name for a container id, e.g. "c0000000000000002a".
std::string ContainerObjectName(const std::string& kind_prefix, uint64_t container_id);

}  // namespace cdstore

#endif  // CDSTORE_SRC_STORAGE_CONTAINER_H_
