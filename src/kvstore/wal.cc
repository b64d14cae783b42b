#include "src/kvstore/wal.h"

#include <unistd.h>

#include <memory>

#include "src/util/crc32c.h"
#include "src/util/fs_util.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

Bytes EncodeBatch(uint64_t first_seq, const WriteBatch& batch) {
  BufferWriter w;
  w.PutU64(first_seq);
  w.PutU32(static_cast<uint32_t>(batch.ops.size()));
  for (const auto& op : batch.ops) {
    w.PutU8(static_cast<uint8_t>(op.type));
    w.PutBytes(op.key);
    w.PutBytes(op.value);
  }
  return w.Take();
}

Status DecodeBatch(ConstByteSpan payload, uint64_t* first_seq, WriteBatch* batch) {
  BufferReader r(payload);
  uint32_t count = 0;
  RETURN_IF_ERROR(r.GetU64(first_seq));
  RETURN_IF_ERROR(r.GetU32(&count));
  batch->Clear();
  batch->ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t type = 0;
    WriteBatch::Op op;
    RETURN_IF_ERROR(r.GetU8(&type));
    if (type > static_cast<uint8_t>(ValueType::kDelete)) {
      return Status::Corruption("bad op type in WAL batch");
    }
    op.type = static_cast<ValueType>(type);
    RETURN_IF_ERROR(r.GetBytes(&op.key));
    RETURN_IF_ERROR(r.GetBytes(&op.value));
    batch->ops.push_back(std::move(op));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in WAL batch");
  }
  return Status::Ok();
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open WAL: " + path);
  }
  return std::unique_ptr<WalWriter>(new WalWriter(f));
}

Status WalWriter::Append(uint64_t first_seq, const WriteBatch& batch, bool sync) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL closed");
  }
  Bytes payload = EncodeBatch(first_seq, batch);
  BufferWriter frame;
  frame.PutU32(MaskCrc(Crc32c(payload)));
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutRaw(payload);
  const Bytes& data = frame.data();
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status::IOError("WAL write failed");
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed");
  }
  if (sync) {
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IOError("WAL fsync failed");
    }
  }
  return Status::Ok();
}

Status WalWriter::Close() {
  if (file_ != nullptr) {
    int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
      return Status::IOError("WAL close failed");
    }
  }
  return Status::Ok();
}

Result<uint64_t> ReplayWal(const std::string& path,
                           const std::function<void(uint64_t, const WriteBatch&)>& apply,
                           uint64_t* intact_bytes) {
  if (intact_bytes != nullptr) {
    *intact_bytes = 0;
  }
  if (!FileExists(path)) {
    return uint64_t{0};
  }
  ASSIGN_OR_RETURN(Bytes data, ReadFileBytes(path));
  BufferReader r(data);
  uint64_t max_seq = 0;
  while (r.remaining() >= 8) {
    uint32_t masked_crc = 0;
    uint32_t len = 0;
    CHECK_OK(r.GetU32(&masked_crc));
    CHECK_OK(r.GetU32(&len));
    if (r.remaining() < len) {
      break;  // truncated tail record: discard
    }
    Bytes payload;
    CHECK_OK(r.GetRaw(len, &payload));
    if (MaskCrc(Crc32c(payload)) != masked_crc) {
      break;  // corrupted record: everything after is unreachable
    }
    uint64_t first_seq = 0;
    WriteBatch batch;
    if (!DecodeBatch(payload, &first_seq, &batch).ok()) {
      break;
    }
    apply(first_seq, batch);
    uint64_t last = first_seq + (batch.ops.empty() ? 0 : batch.ops.size() - 1);
    max_seq = std::max(max_seq, last);
    if (intact_bytes != nullptr) {
      *intact_bytes = data.size() - r.remaining();
    }
  }
  return max_seq;
}

}  // namespace cdstore
