#include "src/kvstore/db.h"

#include <algorithm>
#include <filesystem>

#include "src/util/crc32c.h"
#include "src/util/fs_util.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

namespace {

// Capacity of the block cache shared by a Db's SSTables.
constexpr size_t kBlockCacheBytes = 8 << 20;

// Uniform view over memtable and SSTable iterators for merging. Each
// source owns a reference to what it reads, so it stays valid after the Db
// flushes or compacts it away.
class InternalIterator {
 public:
  virtual ~InternalIterator() = default;
  virtual bool Valid() const = 0;
  // Valid until the next move of this source.
  virtual RecordView record() const = 0;
  virtual Status status() const = 0;
  virtual void Next() = 0;
  virtual void SeekToFirst() = 0;
  virtual void Seek(ConstByteSpan target) = 0;
};

class MemIterAdapter : public InternalIterator {
 public:
  explicit MemIterAdapter(std::shared_ptr<const MemTable> mem)
      : mem_(std::move(mem)), it_(mem_->NewIterator()) {}
  bool Valid() const override { return it_.Valid(); }
  RecordView record() const override { return it_.record().view(); }
  Status status() const override { return Status::Ok(); }
  void Next() override { it_.Next(); }
  void SeekToFirst() override { it_.SeekToFirst(); }
  void Seek(ConstByteSpan target) override { it_.Seek(target); }

 private:
  std::shared_ptr<const MemTable> mem_;
  MemTable::Iterator it_;
};

class SstIterAdapter : public InternalIterator {
 public:
  explicit SstIterAdapter(std::shared_ptr<const SsTable> table)
      : table_(std::move(table)), it_(table_->NewIterator()) {}
  bool Valid() const override { return it_.Valid(); }
  RecordView record() const override { return it_.record(); }
  Status status() const override { return it_.status(); }
  void Next() override { it_.Next(); }
  void SeekToFirst() override { it_.SeekToFirst(); }
  void Seek(ConstByteSpan target) override { it_.Seek(target); }

 private:
  std::shared_ptr<const SsTable> table_;
  SsTable::Iterator it_;
};

using Sources = std::vector<std::unique_ptr<InternalIterator>>;

// Index of the source holding the smallest current record, or -1 when the
// merge is over: every source is exhausted, or one stopped on an error
// (stored in *status). Merging past a failed source would yield a silently
// truncated view.
int SmallestSource(const Sources& sources, Status* status) {
  int best = -1;
  RecordView best_rec;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!sources[i]->Valid()) {
      if (Status st = sources[i]->status(); !st.ok()) {
        *status = std::move(st);
        return -1;
      }
      continue;
    }
    RecordView rec = sources[i]->record();
    if (best < 0 || CompareRecords(rec.key, rec.seq, best_rec.key, best_rec.seq) < 0) {
      best = static_cast<int>(i);
      best_rec = rec;
    }
  }
  return best;
}

// Merges multiple internally-ordered sources and yields only the newest
// visible (seq <= snapshot) non-deleted version of each user key.
class MergingDbIterator : public Db::Iterator {
 public:
  MergingDbIterator(Sources sources, uint64_t snapshot)
      : sources_(std::move(sources)), snapshot_(snapshot) {}

  bool Valid() const override { return valid_; }
  const Bytes& key() const override { return key_; }
  const Bytes& value() const override { return value_; }
  Status status() const override { return status_; }

  void SeekToFirst() override {
    for (auto& s : sources_) {
      s->SeekToFirst();
    }
    have_last_key_ = false;
    FindNextVisible();
  }

  void Seek(ConstByteSpan target) override {
    for (auto& s : sources_) {
      s->Seek(target);
    }
    have_last_key_ = false;
    FindNextVisible();
  }

  void Next() override { FindNextVisible(); }

 private:
  void FindNextVisible() {
    valid_ = false;
    while (status_.ok()) {
      int i = SmallestSource(sources_, &status_);
      if (i < 0) {
        return;
      }
      RecordView rec = sources_[i]->record();
      if (have_last_key_ && CompareKeys(rec.key, last_key_) == 0) {
        sources_[i]->Next();  // shadowed older version
        continue;
      }
      if (rec.seq > snapshot_) {
        sources_[i]->Next();  // newer than the snapshot: invisible
        continue;
      }
      // Newest visible version of a fresh key decides its fate.
      last_key_.assign(rec.key.begin(), rec.key.end());
      have_last_key_ = true;
      if (rec.type == ValueType::kDelete) {
        sources_[i]->Next();
        continue;
      }
      key_ = last_key_;
      value_.assign(rec.value.begin(), rec.value.end());
      valid_ = true;
      sources_[i]->Next();
      return;
    }
  }

  Sources sources_;
  uint64_t snapshot_;
  Bytes last_key_;
  bool have_last_key_ = false;
  Bytes key_;
  Bytes value_;
  bool valid_ = false;
  Status status_;
};

}  // namespace

Db::Db(std::string path, const DbOptions& options)
    : path_(std::move(path)),
      opts_(options),
      cache_(kBlockCacheBytes),
      mem_(std::make_shared<MemTable>()) {}

Db::~Db() = default;

std::string Db::SstPath(uint64_t file_number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%06llu.sst", static_cast<unsigned long long>(file_number));
  return path_ + buf;
}

Result<std::unique_ptr<Db>> Db::Open(const std::string& path, const DbOptions& options) {
  RETURN_IF_ERROR(CreateDirs(path));
  auto db = std::unique_ptr<Db>(new Db(path, options));
  RETURN_IF_ERROR(db->LoadManifest());

  // Replay the WAL into a fresh memtable, then cut off any torn or corrupt
  // tail so new records append right after the last intact one.
  auto apply = [&db](uint64_t first_seq, const WriteBatch& batch) {
    uint64_t seq = first_seq;
    for (const auto& op : batch.ops) {
      db->mem_->Add(seq++, op.type, op.key, op.value);
    }
  };
  uint64_t intact_bytes = 0;
  ASSIGN_OR_RETURN(uint64_t wal_seq, ReplayWal(db->WalPath(), apply, &intact_bytes));
  db->last_seq_ = std::max(db->last_seq_, wal_seq);
  if (std::error_code ec; FileExists(db->WalPath())) {
    std::filesystem::resize_file(db->WalPath(), intact_bytes, ec);
    if (ec) {
      return Status::IOError("cannot truncate WAL tail: " + ec.message());
    }
  }

  ASSIGN_OR_RETURN(db->wal_, WalWriter::Open(db->WalPath()));
  return db;
}

Status Db::LoadManifest() {
  if (!FileExists(ManifestPath())) {
    return Status::Ok();  // fresh database
  }
  ASSIGN_OR_RETURN(Bytes data, ReadFileBytes(ManifestPath()));
  if (data.size() < 4) {
    return Status::Corruption("manifest too small");
  }
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(data[data.size() - 4 + i]) << (8 * i);
  }
  data.resize(data.size() - 4);
  if (MaskCrc(Crc32c(data)) != stored) {
    return Status::Corruption("manifest checksum mismatch");
  }
  BufferReader r(data);
  uint32_t count = 0;
  RETURN_IF_ERROR(r.GetU64(&next_file_number_));
  RETURN_IF_ERROR(r.GetU64(&last_seq_));
  RETURN_IF_ERROR(r.GetU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t file_number = 0;
    RETURN_IF_ERROR(r.GetU64(&file_number));
    ASSIGN_OR_RETURN(auto table, SsTable::Open(SstPath(file_number), file_number, &cache_));
    tables_.push_back(std::move(table));
  }
  return Status::Ok();
}

Status Db::WriteManifestLocked() {
  BufferWriter w;
  w.PutU64(next_file_number_);
  w.PutU64(last_seq_);
  w.PutU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& t : tables_) {
    w.PutU64(t->file_number());
  }
  Bytes data = w.Take();
  uint32_t crc = MaskCrc(Crc32c(data));
  for (int i = 0; i < 4; ++i) {
    data.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  std::string tmp = ManifestPath() + ".tmp";
  RETURN_IF_ERROR(WriteFile(tmp, data));
  std::error_code ec;
  std::filesystem::rename(tmp, ManifestPath(), ec);
  if (ec) {
    return Status::IOError("manifest rename failed");
  }
  return Status::Ok();
}

Status Db::Put(ConstByteSpan key, ConstByteSpan value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status Db::Delete(ConstByteSpan key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status Db::Write(const WriteBatch& batch) {
  MutexLock lock(mu_);
  return WriteLocked(batch);
}

Status Db::WriteLocked(const WriteBatch& batch) {
  RETURN_IF_ERROR(bg_error_);
  if (batch.ops.empty()) {
    return Status::Ok();
  }
  uint64_t first_seq = last_seq_ + 1;
  if (Status st = wal_->Append(first_seq, batch, opts_.sync_wal); !st.ok()) {
    bg_error_ = st;
    return st;
  }
  uint64_t seq = first_seq;
  for (const auto& op : batch.ops) {
    mem_->Add(seq++, op.type, op.key, op.value);
  }
  last_seq_ = seq - 1;
  if (mem_->ApproximateMemoryUsage() >= opts_.write_buffer_size) {
    // The batch is logged, so this Write succeeded; a failed flush is the
    // next call's error.
    bg_error_ = FlushLocked();
  }
  return Status::Ok();
}

Status Db::Get(ConstByteSpan key, Bytes* value) {
  return GetAt(~0ull, key, value);
}

Status Db::GetAt(uint64_t snapshot_seq, ConstByteSpan key, Bytes* value) {
  // Pin the memtable and table set under the lock, as NewIterator does,
  // and probe them unlocked. Clamping to last_seq_ hides the records a
  // concurrent Write is still adding to the pinned memtable, so a read
  // sees a batch whole or not at all.
  std::shared_ptr<const MemTable> mem;
  std::vector<std::shared_ptr<SsTable>> tables;
  {
    MutexLock lock(mu_);
    mem = mem_;
    tables = tables_;
    snapshot_seq = std::min(snapshot_seq, last_seq_);
  }
  bool tombstone = false;
  Status st = mem->Get(key, snapshot_seq, value, &tombstone);
  if (st.ok() || tombstone) {
    return tombstone ? Status::NotFound("deleted") : st;
  }
  for (auto it = tables.rbegin(); it != tables.rend(); ++it) {
    bool found = false;
    bool tomb = false;
    Status ts = (*it)->Get(key, snapshot_seq, value, &found, &tomb);
    if (ts.code() == StatusCode::kCorruption || ts.code() == StatusCode::kIOError) {
      return ts;
    }
    if (found) {
      return tomb ? Status::NotFound("deleted") : Status::Ok();
    }
  }
  return Status::NotFound("key absent");
}

uint64_t Db::GetSnapshot() {
  MutexLock lock(mu_);
  snapshots_.insert(last_seq_);
  return last_seq_;
}

void Db::ReleaseSnapshot(uint64_t snapshot_seq) {
  MutexLock lock(mu_);
  auto it = snapshots_.find(snapshot_seq);
  if (it != snapshots_.end()) {
    snapshots_.erase(it);
  }
}

Status Db::Flush() {
  MutexLock lock(mu_);
  RETURN_IF_ERROR(bg_error_);
  bg_error_ = FlushLocked();
  return bg_error_;
}

Status Db::FlushLocked() {
  if (mem_->empty()) {
    return Status::Ok();
  }
  uint64_t file_number = next_file_number_++;
  SsTableBuilder builder(opts_);
  MemTable::Iterator it = mem_->NewIterator();
  it.SeekToFirst();
  while (it.Valid()) {
    builder.Add(it.record().view());
    it.Next();
  }
  RETURN_IF_ERROR(builder.Finish(SstPath(file_number)).status());
  ASSIGN_OR_RETURN(auto table, SsTable::Open(SstPath(file_number), file_number, &cache_));
  tables_.push_back(std::move(table));
  RETURN_IF_ERROR(WriteManifestLocked());

  // Fresh memtable and WAL.
  mem_ = std::make_shared<MemTable>();
  RETURN_IF_ERROR(wal_->Close());
  if (FileExists(WalPath())) {
    RETURN_IF_ERROR(RemoveFile(WalPath()));
  }
  ASSIGN_OR_RETURN(wal_, WalWriter::Open(WalPath()));

  if (static_cast<int>(tables_.size()) >= opts_.compaction_trigger) {
    RETURN_IF_ERROR(CompactAllLocked());
  }
  return Status::Ok();
}

Status Db::CompactAll() {
  MutexLock lock(mu_);
  RETURN_IF_ERROR(bg_error_);
  return CompactAllLocked();
}

Status Db::CompactAllLocked() {
  if (tables_.size() <= 1) {
    return Status::Ok();
  }
  // Merge all SSTables (memtable stays put — it is strictly newer). With no
  // live snapshots we keep only the newest version per key and drop
  // tombstones outright (the merge covers all persisted history); with live
  // snapshots we conservatively keep everything.
  bool drop_old = snapshots_.empty();

  Sources sources;
  for (const auto& t : tables_) {
    sources.push_back(std::make_unique<SstIterAdapter>(t));
  }
  for (auto& s : sources) {
    s->SeekToFirst();
  }

  uint64_t file_number = next_file_number_++;
  SsTableBuilder builder(opts_);
  Bytes last_key;
  bool have_last_key = false;
  uint64_t kept = 0;
  Status merge_status;
  while (true) {
    int best = SmallestSource(sources, &merge_status);
    if (best < 0) {
      break;
    }
    RecordView rec = sources[best]->record();
    bool shadowed = have_last_key && CompareKeys(rec.key, last_key) == 0;
    if (!drop_old) {
      builder.Add(rec);
      ++kept;
    } else if (!shadowed && rec.type == ValueType::kPut) {
      builder.Add(rec);
      ++kept;
    }
    last_key.assign(rec.key.begin(), rec.key.end());
    have_last_key = true;
    sources[best]->Next();
  }
  // A corrupt input table fails the compaction; writing what was read
  // would drop the rest of that table for good.
  if (!merge_status.ok()) {
    next_file_number_--;
    return merge_status;
  }

  std::vector<uint64_t> old_files;
  for (const auto& t : tables_) {
    old_files.push_back(t->file_number());
  }

  if (kept == 0) {
    // Everything was deleted; no output table.
    tables_.clear();
    next_file_number_--;  // reclaim the unused number
  } else {
    RETURN_IF_ERROR(builder.Finish(SstPath(file_number)).status());
    tables_.clear();
    ASSIGN_OR_RETURN(auto table, SsTable::Open(SstPath(file_number), file_number, &cache_));
    tables_.push_back(std::move(table));
  }
  RETURN_IF_ERROR(WriteManifestLocked());
  // Unlinking is safe under iterators still reading an old table: they
  // hold it open, and its blocks leave the cache when the last one closes.
  for (uint64_t f : old_files) {
    (void)RemoveFile(SstPath(f));
  }
  return Status::Ok();
}

std::unique_ptr<Db::Iterator> Db::NewIterator(uint64_t snapshot_seq) {
  MutexLock lock(mu_);
  if (snapshot_seq == 0) {
    snapshot_seq = last_seq_;
  }
  Sources sources;
  sources.push_back(std::make_unique<MemIterAdapter>(mem_));
  for (const auto& t : tables_) {
    sources.push_back(std::make_unique<SstIterAdapter>(t));
  }
  auto iter = std::make_unique<MergingDbIterator>(std::move(sources), snapshot_seq);
  iter->SeekToFirst();
  return iter;
}

int Db::sstable_count() const {
  MutexLock lock(mu_);
  return static_cast<int>(tables_.size());
}

uint64_t Db::last_sequence() const {
  MutexLock lock(mu_);
  return last_seq_;
}

}  // namespace cdstore
