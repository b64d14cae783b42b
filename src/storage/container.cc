#include "src/storage/container.h"

#include <cstdio>

#include "src/util/crc32c.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

uint32_t ContainerBuilder::Add(ConstByteSpan blob) {
  offsets_.push_back(static_cast<uint32_t>(payload_.size()));
  lengths_.push_back(static_cast<uint32_t>(blob.size()));
  payload_.insert(payload_.end(), blob.begin(), blob.end());
  return count() - 1;
}

Result<ConstByteSpan> ContainerBuilder::BlobAt(uint32_t index) const {
  if (index >= lengths_.size()) {
    return Status::InvalidArgument("open-container blob index out of range");
  }
  return ConstByteSpan(payload_.data() + offsets_[index], lengths_[index]);
}

Bytes ContainerBuilder::Image() const {
  BufferWriter w(payload_.size() + 16 + 8 * lengths_.size());
  w.PutU32(kContainerMagic);
  w.PutU32(count());
  w.PutRaw(payload_);
  for (size_t i = 0; i < lengths_.size(); ++i) {
    w.PutU32(offsets_[i]);
    w.PutU32(lengths_[i]);
  }
  Bytes image = w.Take();
  uint32_t crc = MaskCrc(Crc32c(image));
  for (int i = 0; i < 4; ++i) {
    image.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return image;
}

void ContainerBuilder::Reset() {
  payload_.clear();
  offsets_.clear();
  lengths_.clear();
}

namespace {

constexpr size_t kHeaderBytes = 8;  // magic + count

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

Result<ContainerReader> ContainerReader::Parse(Bytes image) {
  RETURN_IF_ERROR(Verify(image));
  return View(std::make_shared<const Bytes>(std::move(image)));
}

Status ContainerReader::Verify(ConstByteSpan image) {
  if (image.size() < kHeaderBytes + 4) {
    return Status::Corruption("container too small");
  }
  if (MaskCrc(Crc32c(image.first(image.size() - 4))) != LoadU32(&image[image.size() - 4])) {
    return Status::Corruption("container checksum mismatch");
  }
  return Status::Ok();
}

Result<ContainerReader> ContainerReader::View(std::shared_ptr<const Bytes> image) {
  if (image->size() < kHeaderBytes + 4) {
    return Status::Corruption("container too small");
  }
  if (LoadU32(image->data()) != kContainerMagic) {
    return Status::Corruption("bad container magic");
  }
  ContainerReader reader;
  reader.count_ = LoadU32(image->data() + 4);
  size_t table_size = static_cast<size_t>(reader.count_) * 8;
  if (image->size() - kHeaderBytes - 4 < table_size) {
    return Status::Corruption("container entry table truncated");
  }
  reader.table_offset_ = image->size() - 4 - table_size;
  reader.image_ = std::move(image);
  return reader;
}

Result<ConstByteSpan> ContainerReader::Blob(uint32_t index) const {
  if (index >= count_) {
    return Status::InvalidArgument("blob index out of range");
  }
  const uint8_t* entry = image_->data() + table_offset_ + 8 * static_cast<size_t>(index);
  uint32_t offset = LoadU32(entry);
  uint32_t length = LoadU32(entry + 4);
  if (static_cast<size_t>(offset) + length > table_offset_ - kHeaderBytes) {
    return Status::Corruption("container entry out of bounds");
  }
  return ConstByteSpan(image_->data() + kHeaderBytes + offset, length);
}

std::string ContainerObjectName(const std::string& kind_prefix, uint64_t container_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(container_id));
  return kind_prefix + buf;
}

}  // namespace cdstore
