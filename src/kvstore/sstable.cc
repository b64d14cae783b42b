#include "src/kvstore/sstable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "src/util/crc32c.h"
#include "src/util/fs_util.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

namespace {

// SSTable bloom density: about 1% false positives.
constexpr int kBloomBitsPerKey = 10;

void AppendRecord(Bytes* out, const RecordView& rec) {
  BufferWriter w;
  w.PutBytes(rec.key);
  w.PutU64(rec.seq);
  w.PutU8(static_cast<uint8_t>(rec.type));
  w.PutBytes(rec.value);
  const Bytes& d = w.data();
  out->insert(out->end(), d.begin(), d.end());
}

void AppendBlockWithCrc(Bytes* file, ConstByteSpan block) {
  file->insert(file->end(), block.begin(), block.end());
  uint32_t crc = MaskCrc(Crc32c(block));
  for (int i = 0; i < 4; ++i) {
    file->push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
}

// LEB128 varint at [p, end): returns the byte after it, or nullptr when it
// is truncated or longer than 64 bits.
const uint8_t* DecodeVarint(const uint8_t* p, const uint8_t* end, uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift < 64 && p < end; shift += 7) {
    uint8_t b = *p++;
    out |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *v = out;
      return p;
    }
  }
  return nullptr;
}

// Length-prefixed bytes at [p, end) as a view; nullptr when truncated.
const uint8_t* DecodeBytes(const uint8_t* p, const uint8_t* end, ConstByteSpan* out) {
  uint64_t len = 0;
  p = DecodeVarint(p, end, &len);
  if (p == nullptr || len > static_cast<uint64_t>(end - p)) {
    return nullptr;
  }
  *out = ConstByteSpan(p, len);
  return p + len;
}

// Decodes the record at `*pos` of `block` in place (the AppendRecord
// layout) and advances `*pos` past it. The hot loop of every point read, so
// it walks raw pointers rather than a BufferReader.
Status DecodeRecord(ConstByteSpan block, size_t* pos, RecordView* rec) {
  const uint8_t* end = block.data() + block.size();
  const uint8_t* p = DecodeBytes(block.data() + *pos, end, &rec->key);
  if (p == nullptr || end - p < 9) {
    return Status::Corruption("truncated record in SSTable block");
  }
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    seq |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  rec->seq = seq;
  if (p[8] > static_cast<uint8_t>(ValueType::kDelete)) {
    return Status::Corruption("bad record type in SSTable block");
  }
  rec->type = static_cast<ValueType>(p[8]);
  p = DecodeBytes(p + 9, end, &rec->value);
  if (p == nullptr) {
    return Status::Corruption("truncated record in SSTable block");
  }
  *pos = static_cast<size_t>(p - block.data());
  return Status::Ok();
}

Status PreadFully(int fd, uint64_t offset, ByteSpan out) {
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                        static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return Status::IOError("SSTable read failed");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

// ----------------------------------------------------------------- builder --

SsTableBuilder::SsTableBuilder(const DbOptions& options) : opts_(options) {}

void SsTableBuilder::Add(const RecordView& record) {
  if (have_prev_) {
    // Records must arrive in internal order: key ascending, seq descending
    // within a key (multiple versions of one key are legal).
    DCHECK_LE(CompareRecords(prev_key_, prev_seq_, record.key, record.seq), 0);
  }
  prev_key_.assign(record.key.begin(), record.key.end());
  prev_seq_ = record.seq;
  have_prev_ = true;
  AppendRecord(&current_block_, record);
  current_last_key_.assign(record.key.begin(), record.key.end());
  keys_for_bloom_.emplace_back(record.key.begin(), record.key.end());
  ++entry_count_;
  if (current_block_.size() >= opts_.block_size) {
    FlushBlock();
  }
}

void SsTableBuilder::FlushBlock() {
  if (current_block_.empty()) {
    return;
  }
  IndexEntry e;
  e.last_key = current_last_key_;
  e.offset = file_.size();
  e.length = current_block_.size();
  AppendBlockWithCrc(&file_, current_block_);
  index_.push_back(std::move(e));
  current_block_.clear();
}

Result<uint64_t> SsTableBuilder::Finish(const std::string& path) {
  FlushBlock();

  // Bloom filter block.
  BloomFilter bloom(keys_for_bloom_.size(), kBloomBitsPerKey);
  for (const Bytes& k : keys_for_bloom_) {
    bloom.Add(k);
  }
  Bytes bloom_block = bloom.Serialize();
  uint64_t bloom_off = file_.size();
  AppendBlockWithCrc(&file_, bloom_block);

  // Index block.
  BufferWriter iw;
  for (const IndexEntry& e : index_) {
    iw.PutBytes(e.last_key);
    iw.PutU64(e.offset);
    iw.PutU64(e.length);
  }
  Bytes index_block = iw.Take();
  uint64_t index_off = file_.size();
  AppendBlockWithCrc(&file_, index_block);

  // Footer.
  BufferWriter fw;
  fw.PutU64(index_off);
  fw.PutU64(index_block.size());
  fw.PutU64(bloom_off);
  fw.PutU64(bloom_block.size());
  fw.PutU64(entry_count_);
  fw.PutU64(kSsTableMagic);
  const Bytes& footer = fw.data();
  file_.insert(file_.end(), footer.begin(), footer.end());

  RETURN_IF_ERROR(WriteFile(path, file_));
  return entry_count_;
}

// ------------------------------------------------------------------ reader --

SsTable::~SsTable() {
  if (cache_ != nullptr) {
    cache_->EraseFile(file_number_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<std::unique_ptr<SsTable>> SsTable::Open(const std::string& path, uint64_t file_number,
                                               BlockCache* cache) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open SSTable: " + path);
  }
  auto table = std::unique_ptr<SsTable>(new SsTable());
  table->fd_ = fd;
  table->file_number_ = file_number;

  // Footer.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("cannot stat SSTable: " + path);
  }
  if (st.st_size < 48) {
    return Status::Corruption("SSTable too small: " + path);
  }
  uint8_t footer[48];
  RETURN_IF_ERROR(PreadFully(fd, static_cast<uint64_t>(st.st_size) - 48, footer));
  BufferReader fr(ConstByteSpan(footer, 48));
  uint64_t index_off, index_len, bloom_off, bloom_len, entries, magic;
  CHECK_OK(fr.GetU64(&index_off));
  CHECK_OK(fr.GetU64(&index_len));
  CHECK_OK(fr.GetU64(&bloom_off));
  CHECK_OK(fr.GetU64(&bloom_len));
  CHECK_OK(fr.GetU64(&entries));
  CHECK_OK(fr.GetU64(&magic));
  if (magic != kSsTableMagic) {
    return Status::Corruption("bad SSTable magic: " + path);
  }
  table->entry_count_ = entries;

  // The bloom and index blocks live in the table itself, not the cache.
  ASSIGN_OR_RETURN(Bytes bloom_block, table->ReadVerified(bloom_off, bloom_len));
  table->bloom_ = BloomFilter::Deserialize(bloom_block);

  ASSIGN_OR_RETURN(Bytes index_block, table->ReadVerified(index_off, index_len));
  BufferReader ir(index_block);
  while (!ir.AtEnd()) {
    IndexEntry e;
    RETURN_IF_ERROR(ir.GetBytes(&e.last_key));
    RETURN_IF_ERROR(ir.GetU64(&e.offset));
    RETURN_IF_ERROR(ir.GetU64(&e.length));
    table->index_.push_back(std::move(e));
  }
  // Set last: a table that failed to open has no blocks to drop.
  table->cache_ = cache;
  return table;
}

Result<Bytes> SsTable::ReadVerified(uint64_t offset, uint64_t length) const {
  Bytes block(length + 4);
  RETURN_IF_ERROR(PreadFully(fd_, offset, block));
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(block[length + i]) << (8 * i);
  }
  block.resize(length);
  if (MaskCrc(Crc32c(block)) != stored) {
    return Status::Corruption("SSTable block checksum mismatch");
  }
  return block;
}

Result<std::shared_ptr<const Bytes>> SsTable::ReadBlock(size_t block_idx) const {
  const IndexEntry& e = index_[block_idx];
  if (cache_ != nullptr) {
    if (auto cached = cache_->Lookup(file_number_, e.offset); cached != nullptr) {
      return cached;
    }
  }
  ASSIGN_OR_RETURN(Bytes block, ReadVerified(e.offset, e.length));
  if (cache_ == nullptr) {
    return std::make_shared<const Bytes>(std::move(block));
  }
  return cache_->Insert(file_number_, e.offset, std::move(block));
}

size_t SsTable::FindBlockFor(ConstByteSpan key) const {
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareKeys(index_[mid].last_key, key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status SsTable::Get(ConstByteSpan key, uint64_t snapshot_seq, Bytes* value, bool* found,
                    bool* tombstone) const {
  *found = false;
  *tombstone = false;
  if (!bloom_.MayContain(key)) {
    return Status::NotFound("bloom miss");
  }
  // Versions of one key may straddle a block boundary; scan forward.
  for (size_t bi = FindBlockFor(key); bi < index_.size(); ++bi) {
    ASSIGN_OR_RETURN(std::shared_ptr<const Bytes> block, ReadBlock(bi));
    RecordView rec;
    for (size_t pos = 0; pos < block->size();) {
      RETURN_IF_ERROR(DecodeRecord(*block, &pos, &rec));
      int cmp = CompareKeys(rec.key, key);
      if (cmp < 0) {
        continue;
      }
      if (cmp > 0) {
        return Status::NotFound("key absent");
      }
      if (rec.seq > snapshot_seq) {
        continue;  // too new for this snapshot
      }
      *found = true;
      if (rec.type == ValueType::kDelete) {
        *tombstone = true;
        return Status::NotFound("tombstone");
      }
      value->assign(rec.value.begin(), rec.value.end());
      return Status::Ok();
    }
  }
  return Status::NotFound("key absent");
}

// ---------------------------------------------------------------- iterator --

bool SsTable::Iterator::LoadBlock(size_t block_idx) {
  valid_ = false;
  if (block_idx >= table_->index_.size()) {
    return false;
  }
  auto block = table_->ReadBlock(block_idx);
  if (!block.ok()) {
    status_ = block.status();
    return false;
  }
  block_idx_ = block_idx;
  block_ = std::move(block).value();
  pos_ = 0;
  if (block_->empty()) {
    status_ = Status::Corruption("empty SSTable block");
    return false;
  }
  return DecodeCurrent();
}

bool SsTable::Iterator::DecodeCurrent() {
  Status st = DecodeRecord(*block_, &pos_, &current_);
  if (!st.ok()) {
    status_ = std::move(st);
    valid_ = false;
    return false;
  }
  valid_ = true;
  return true;
}

void SsTable::Iterator::SeekToFirst() { LoadBlock(0); }

void SsTable::Iterator::Seek(ConstByteSpan target) {
  if (!LoadBlock(table_->FindBlockFor(target))) {
    return;
  }
  while (valid_ && CompareKeys(current_.key, target) < 0) {
    Next();
  }
}

void SsTable::Iterator::Next() {
  DCHECK(valid_);
  if (pos_ < block_->size()) {
    DecodeCurrent();
  } else {
    LoadBlock(block_idx_ + 1);
  }
}

}  // namespace cdstore
