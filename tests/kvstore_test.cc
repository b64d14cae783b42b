#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "src/kvstore/bloom.h"
#include "src/kvstore/block_cache.h"
#include "src/kvstore/db.h"
#include "src/kvstore/memtable.h"
#include "src/kvstore/wal.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"
#include "tests/file_size_limit.h"

namespace cdstore {
namespace {

Bytes B(const std::string& s) { return BytesOf(s); }

DbOptions SmallDb() {
  DbOptions o;
  o.write_buffer_size = 16 * 1024;  // flush often so tests exercise SSTs
  o.compaction_trigger = 3;
  return o;
}

// Zero-padded, so key order is insertion order.
Bytes NumKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return B(buf);
}

Bytes NumValue(int i, int version = 0) {
  return B("value-" + std::to_string(i) + "-" + std::to_string(version) + std::string(40, 'x'));
}

// The only SSTable in a compacted db directory.
std::string OnlySstable(const std::string& db_dir) {
  auto names = ListDir(db_dir);
  EXPECT_TRUE(names.ok());
  std::string found;
  for (const std::string& name : names.value()) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0) {
      EXPECT_TRUE(found.empty()) << "more than one SSTable";
      found = db_dir + "/" + name;
    }
  }
  EXPECT_FALSE(found.empty()) << "no SSTable";
  return found;
}

void FlipByte(const std::string& path, size_t offset) {
  auto data = ReadFileBytes(path);
  ASSERT_TRUE(data.ok());
  ASSERT_LT(offset, data.value().size());
  data.value()[offset] ^= 0x5a;
  ASSERT_TRUE(WriteFile(path, data.value()).ok());
}

// `count` keys in one compacted SSTable, then the db is closed.
void BuildCompactedDb(const std::string& db_dir, int count) {
  auto db = Db::Open(db_dir, SmallDb());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(db.value()->Put(NumKey(i), NumValue(i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());
  ASSERT_EQ(db.value()->sstable_count(), 1);
}

// ----------------------------------------------------------------- bloom --

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter f(1000, 10);
  Rng rng(1);
  std::vector<Bytes> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(rng.RandomBytes(20));
    f.Add(keys.back());
  }
  for (const Bytes& k : keys) {
    EXPECT_TRUE(f.MayContain(k));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter f(1000, 10);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    f.Add(rng.RandomBytes(20));
  }
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (f.MayContain(rng.RandomBytes(21))) {
      ++fp;
    }
  }
  // 10 bits/key gives ~1%; allow up to 5%.
  EXPECT_LT(fp, 500);
}

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter f(100, 10);
  f.Add(B("hello"));
  f.Add(B("world"));
  BloomFilter g = BloomFilter::Deserialize(f.Serialize());
  EXPECT_TRUE(g.MayContain(B("hello")));
  EXPECT_TRUE(g.MayContain(B("world")));
}

// ----------------------------------------------------------- block cache --

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache cache(1024);
  cache.Insert(1, 0, Bytes(100, 'x'));
  auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, EvictsLruUnderPressure) {
  BlockCache cache(250);
  cache.Insert(1, 0, Bytes(100, 'a'));
  cache.Insert(1, 100, Bytes(100, 'b'));
  ASSERT_NE(cache.Lookup(1, 0), nullptr);   // touch block 0: now MRU
  cache.Insert(1, 200, Bytes(100, 'c'));    // evicts block at offset 100
  EXPECT_EQ(cache.Lookup(1, 100), nullptr);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(1, 200), nullptr);
}

TEST(BlockCacheTest, EraseFileDropsAllItsBlocks) {
  BlockCache cache(1 << 20);
  cache.Insert(7, 0, Bytes(10));
  cache.Insert(7, 10, Bytes(10));
  cache.Insert(8, 0, Bytes(10));
  cache.EraseFile(7);
  EXPECT_EQ(cache.Lookup(7, 0), nullptr);
  EXPECT_EQ(cache.Lookup(7, 10), nullptr);
  EXPECT_NE(cache.Lookup(8, 0), nullptr);
}

// -------------------------------------------------------------- memtable --

TEST(MemTableTest, NewestVersionWins) {
  MemTable mem;
  mem.Add(1, ValueType::kPut, B("k"), B("v1"));
  mem.Add(5, ValueType::kPut, B("k"), B("v5"));
  Bytes value;
  bool tomb = false;
  ASSERT_TRUE(mem.Get(B("k"), ~0ull, &value, &tomb).ok());
  EXPECT_EQ(value, B("v5"));
}

TEST(MemTableTest, SnapshotReadsOlderVersion) {
  MemTable mem;
  mem.Add(1, ValueType::kPut, B("k"), B("v1"));
  mem.Add(5, ValueType::kPut, B("k"), B("v5"));
  Bytes value;
  bool tomb = false;
  ASSERT_TRUE(mem.Get(B("k"), 3, &value, &tomb).ok());
  EXPECT_EQ(value, B("v1"));
}

TEST(MemTableTest, TombstoneShadows) {
  MemTable mem;
  mem.Add(1, ValueType::kPut, B("k"), B("v"));
  mem.Add(2, ValueType::kDelete, B("k"), {});
  Bytes value;
  bool tomb = false;
  EXPECT_FALSE(mem.Get(B("k"), ~0ull, &value, &tomb).ok());
  EXPECT_TRUE(tomb);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable mem;
  Rng rng(3);
  std::map<Bytes, Bytes> expect;
  for (int i = 0; i < 500; ++i) {
    Bytes k = rng.RandomBytes(8);
    Bytes v = rng.RandomBytes(16);
    mem.Add(i + 1, ValueType::kPut, k, v);
    expect[k] = v;
  }
  auto it = mem.NewIterator();
  it.SeekToFirst();
  Bytes prev;
  size_t count = 0;
  while (it.Valid()) {
    if (count > 0) {
      EXPECT_LE(prev, it.record().key);
    }
    prev = it.record().key;
    ++count;
    it.Next();
  }
  EXPECT_EQ(count, 500u);
}

// ------------------------------------------------------------------- WAL --

TEST(WalTest, AppendAndReplay) {
  TempDir dir;
  std::string path = dir.Sub("wal");
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    WriteBatch b1;
    b1.Put(B("a"), B("1"));
    b1.Put(B("b"), B("2"));
    ASSERT_TRUE(w.value()->Append(1, b1, false).ok());
    WriteBatch b2;
    b2.Delete(B("a"));
    ASSERT_TRUE(w.value()->Append(3, b2, false).ok());
  }
  std::vector<std::pair<uint64_t, size_t>> seen;
  auto replayed = ReplayWal(path, [&seen](uint64_t seq, const WriteBatch& b) {
    seen.push_back({seq, b.ops.size()});
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 3u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, size_t>{1, 2}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, size_t>{3, 1}));
}

TEST(WalTest, TruncatedTailIsDiscarded) {
  TempDir dir;
  std::string path = dir.Sub("wal");
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    WriteBatch b;
    b.Put(B("a"), B("1"));
    ASSERT_TRUE(w.value()->Append(1, b, false).ok());
    b.Clear();
    b.Put(B("b"), B("2"));
    ASSERT_TRUE(w.value()->Append(2, b, false).ok());
  }
  // Chop off the last 3 bytes: the second record is torn.
  auto data = ReadFileBytes(path);
  ASSERT_TRUE(data.ok());
  data.value().resize(data.value().size() - 3);
  ASSERT_TRUE(WriteFile(path, data.value()).ok());

  int batches = 0;
  auto replayed = ReplayWal(path, [&batches](uint64_t, const WriteBatch&) { ++batches; });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(batches, 1);
  EXPECT_EQ(replayed.value(), 1u);
}

TEST(WalTest, CorruptedRecordStopsReplay) {
  TempDir dir;
  std::string path = dir.Sub("wal");
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    WriteBatch b;
    b.Put(B("a"), B("1"));
    ASSERT_TRUE(w.value()->Append(1, b, false).ok());
  }
  auto data = ReadFileBytes(path);
  ASSERT_TRUE(data.ok());
  data.value()[10] ^= 0xff;  // corrupt payload
  ASSERT_TRUE(WriteFile(path, data.value()).ok());
  int batches = 0;
  auto replayed = ReplayWal(path, [&batches](uint64_t, const WriteBatch&) { ++batches; });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(batches, 0);
}

// -------------------------------------------------------------------- DB --

TEST(DbTest, PutGetDelete) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(B("key"), B("value")).ok());
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("key"), &v).ok());
  EXPECT_EQ(v, B("value"));
  ASSERT_TRUE(db.value()->Delete(B("key")).ok());
  EXPECT_EQ(db.value()->Get(B("key"), &v).code(), StatusCode::kNotFound);
}

TEST(DbTest, OverwriteReturnsLatest) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.value()->Put(B("k"), B("v" + std::to_string(i))).ok());
  }
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("k"), &v).ok());
  EXPECT_EQ(v, B("v9"));
}

TEST(DbTest, SurvivesReopenViaWal) {
  TempDir dir;
  std::string path = dir.Sub("db");
  {
    auto db = Db::Open(path, SmallDb());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put(B("persist"), B("me")).ok());
  }
  auto db = Db::Open(path, SmallDb());
  ASSERT_TRUE(db.ok());
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("persist"), &v).ok());
  EXPECT_EQ(v, B("me"));
}

TEST(DbTest, SurvivesReopenViaSstables) {
  TempDir dir;
  std::string path = dir.Sub("db");
  Rng rng(4);
  std::map<Bytes, Bytes> expect;
  {
    auto db = Db::Open(path, SmallDb());
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 2000; ++i) {  // forces multiple flushes + compaction
      Bytes k = rng.RandomBytes(16);
      Bytes v = rng.RandomBytes(64);
      ASSERT_TRUE(db.value()->Put(k, v).ok());
      expect[k] = v;
    }
    ASSERT_TRUE(db.value()->Flush().ok());
    EXPECT_GE(db.value()->sstable_count(), 1);
  }
  auto db = Db::Open(path, SmallDb());
  ASSERT_TRUE(db.ok());
  int checked = 0;
  for (const auto& [k, v] : expect) {
    Bytes got;
    ASSERT_TRUE(db.value()->Get(k, &got).ok()) << "missing key after reopen";
    EXPECT_EQ(got, v);
    if (++checked >= 200) break;  // sample
  }
}

TEST(DbTest, TombstoneShadowsAcrossSstables) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(B("k"), B("v")).ok());
  ASSERT_TRUE(db.value()->Flush().ok());  // v lives in an SSTable
  ASSERT_TRUE(db.value()->Delete(B("k")).ok());
  ASSERT_TRUE(db.value()->Flush().ok());  // tombstone in a newer SSTable
  Bytes v;
  EXPECT_EQ(db.value()->Get(B("k"), &v).code(), StatusCode::kNotFound);
}

TEST(DbTest, CompactionPreservesData) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  Rng rng(5);
  std::map<Bytes, Bytes> expect;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 300; ++i) {
      Bytes k = rng.RandomBytes(8);
      Bytes v = rng.RandomBytes(32);
      ASSERT_TRUE(db.value()->Put(k, v).ok());
      expect[k] = v;
    }
    ASSERT_TRUE(db.value()->Flush().ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  EXPECT_EQ(db.value()->sstable_count(), 1);
  for (const auto& [k, v] : expect) {
    Bytes got;
    ASSERT_TRUE(db.value()->Get(k, &got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(DbTest, CompactionDropsTombstones) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.value()->Put(B("k" + std::to_string(i)), B("v")).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.value()->Delete(B("k" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());
  auto it = db.value()->NewIterator();
  int live = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ++live;
  }
  EXPECT_EQ(live, 0);
}

TEST(DbTest, IteratorYieldsSortedVisibleKeys) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(B("b"), B("2")).ok());
  ASSERT_TRUE(db.value()->Put(B("a"), B("1")).ok());
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->Put(B("c"), B("3")).ok());
  ASSERT_TRUE(db.value()->Put(B("b"), B("2v2")).ok());  // overwrite across levels
  ASSERT_TRUE(db.value()->Delete(B("a")).ok());

  auto it = db.value()->NewIterator();
  std::vector<std::pair<std::string, std::string>> got;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    got.push_back({StringOf(it->key()), StringOf(it->value())});
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::string, std::string>{"b", "2v2"}));
  EXPECT_EQ(got[1], (std::pair<std::string, std::string>{"c", "3"}));
}

TEST(DbTest, IteratorSeekLandsOnOrAfterTarget) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  for (char c = 'a'; c <= 'g'; c += 2) {  // a c e g
    ASSERT_TRUE(db.value()->Put(B(std::string(1, c)), B("v")).ok());
  }
  auto it = db.value()->NewIterator();
  it->Seek(B("d"));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(StringOf(it->key()), "e");
}

TEST(DbTest, SnapshotIsolation) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(B("k"), B("old")).ok());
  uint64_t snap = db.value()->GetSnapshot();
  ASSERT_TRUE(db.value()->Put(B("k"), B("new")).ok());
  ASSERT_TRUE(db.value()->Put(B("k2"), B("born-later")).ok());

  Bytes v;
  ASSERT_TRUE(db.value()->GetAt(snap, B("k"), &v).ok());
  EXPECT_EQ(v, B("old"));
  EXPECT_EQ(db.value()->GetAt(snap, B("k2"), &v).code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.value()->Get(B("k"), &v).ok());
  EXPECT_EQ(v, B("new"));
  db.value()->ReleaseSnapshot(snap);
}

TEST(DbTest, SnapshotSurvivesFlushAndCompaction) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(B("k"), B("old")).ok());
  ASSERT_TRUE(db.value()->Flush().ok());
  uint64_t snap = db.value()->GetSnapshot();
  ASSERT_TRUE(db.value()->Put(B("k"), B("new")).ok());
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());  // must preserve snapshot version
  Bytes v;
  ASSERT_TRUE(db.value()->GetAt(snap, B("k"), &v).ok());
  EXPECT_EQ(v, B("old"));
  db.value()->ReleaseSnapshot(snap);
}

TEST(DbTest, WriteBatchIsAtomicInSequence) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  WriteBatch batch;
  batch.Put(B("x"), B("1"));
  batch.Put(B("y"), B("2"));
  batch.Delete(B("x"));
  ASSERT_TRUE(db.value()->Write(batch).ok());
  Bytes v;
  EXPECT_EQ(db.value()->Get(B("x"), &v).code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.value()->Get(B("y"), &v).ok());
  EXPECT_EQ(v, B("2"));
  EXPECT_EQ(db.value()->last_sequence(), 3u);
}

TEST(DbTest, LargeValuesRoundTrip) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  Bytes big = Rng(6).RandomBytes(300 * 1024);  // much larger than buffer
  ASSERT_TRUE(db.value()->Put(B("big"), big).ok());
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("big"), &v).ok());
  EXPECT_EQ(v, big);
}

TEST(DbTest, ScanOverCorruptBlockReportsCorruption) {
  TempDir dir;
  BuildCompactedDb(dir.Sub("db"), 2000);
  std::string sst = OnlySstable(dir.Sub("db"));
  // A third of the way in is inside the data blocks (the bloom filter and
  // index block are a few KiB at the tail).
  auto size = ReadFileBytes(sst);
  ASSERT_TRUE(size.ok());
  FlipByte(sst, size.value().size() / 3);

  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  auto it = db.value()->NewIterator();
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key(), NumKey(count));
    ++count;
  }
  EXPECT_LT(count, 2000);
  EXPECT_EQ(it->status().code(), StatusCode::kCorruption) << it->status();
  // Seeking past the bad block does not clear the error.
  it->Seek(NumKey(1999));
  EXPECT_EQ(it->status().code(), StatusCode::kCorruption);
}

TEST(DbTest, GetFromCorruptBlockReportsCorruption) {
  TempDir dir;
  BuildCompactedDb(dir.Sub("db"), 2000);
  FlipByte(OnlySstable(dir.Sub("db")), 10);  // inside the first data block

  auto db = Db::Open(dir.Sub("db"), SmallDb());
  ASSERT_TRUE(db.ok());
  Bytes v;
  EXPECT_EQ(db.value()->Get(NumKey(0), &v).code(), StatusCode::kCorruption);
  // Keys in intact blocks still read.
  ASSERT_TRUE(db.value()->Get(NumKey(1999), &v).ok());
  EXPECT_EQ(v, NumValue(1999));
}

TEST(DbTest, IteratorOutlivesFlushAndCompaction) {
  TempDir dir;
  DbOptions o = SmallDb();
  o.write_buffer_size = 64 * 1024;
  auto db = Db::Open(dir.Sub("db"), o);
  ASSERT_TRUE(db.ok());
  // Half the keys in table 1, half in the memtable.
  const int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.value()->Put(NumKey(i), NumValue(i)).ok());
    if (i == kKeys / 2) {
      ASSERT_TRUE(db.value()->Flush().ok());
    }
  }
  ASSERT_EQ(db.value()->sstable_count(), 1);
  ASSERT_TRUE(FileExists(dir.Sub("db/000001.sst")));
  auto it = db.value()->NewIterator();
  ASSERT_TRUE(it->Valid());
  // Overwrite every key and add as many again: flushes and compactions
  // replace the memtable and the table the iterator was built over.
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 2 * kKeys; ++i) {
      ASSERT_TRUE(db.value()->Put(NumKey(i), NumValue(i, round)).ok());
    }
  }
  ASSERT_FALSE(FileExists(dir.Sub("db/000001.sst")));  // compacted away
  int count = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_EQ(it->key(), NumKey(count));
    EXPECT_EQ(it->value(), NumValue(count));
    ++count;
  }
  EXPECT_TRUE(it->status().ok()) << it->status();
  EXPECT_EQ(count, kKeys);
}

TEST(DbTest, ConcurrentScansSeeExactlyTheWritesBeforeThem) {
  TempDir dir;
  DbOptions o;
  o.write_buffer_size = 4 * 1024;  // a flush every ~60 puts
  o.compaction_trigger = 3;
  auto opened = Db::Open(dir.Sub("db"), o);
  ASSERT_TRUE(opened.ok());
  Db* db = opened.value().get();
  const int kKeys = 3000;
  std::atomic<int> started{0};
  std::atomic<int> committed{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < kKeys && !stop.load(); ++i) {
      started.store(i + 1, std::memory_order_release);
      Status st = db->Put(NumKey(i), NumValue(i));
      if (!st.ok()) {
        ADD_FAILURE() << "put " << i << ": " << st;
        break;
      }
      committed.store(i + 1, std::memory_order_release);
    }
    stop.store(true);
  });
  // Key i is put i-th with a fixed value, so a scan must see exactly keys
  // [0, n): n at least the puts finished before its creation, at most the
  // puts started by the end of it.
  int scans = 0;
  bool failed = false;
  while (!failed && (!stop.load() || scans == 0)) {
    int before = committed.load(std::memory_order_acquire);
    auto it = db->NewIterator();
    int after = started.load(std::memory_order_acquire);
    int n = 0;
    for (; it->Valid(); it->Next(), ++n) {
      if (it->key() != NumKey(n) || it->value() != NumValue(n)) {
        ADD_FAILURE() << "scan " << scans << " wrong entry at " << n;
        failed = true;
        break;
      }
    }
    if (!failed && (!it->status().ok() || n < before || n > after)) {
      ADD_FAILURE() << "scan " << scans << " saw " << n << " keys, committed " << before << ".."
                    << after << ", status " << it->status();
      failed = true;
    }
    ++scans;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(committed.load(), kKeys);
  EXPECT_GT(scans, 1);
}

// Point reads pin the memtable and table set, then probe unlocked. Readers
// Get every key while one writer overwrites all keys with a rising version
// per batch (each batch triggers a flush) and compacts every few batches,
// unlinking the tables readers may still hold. A read must see at least
// the batches committed before it, at most those started by its end, and
// never an older version of a key than an earlier read of that key saw.
TEST(DbTest, ConcurrentGetsSeeRisingValuesAcrossFlushAndCompaction) {
  TempDir dir;
  DbOptions o;
  o.write_buffer_size = 4 * 1024;  // every batch below flushes
  o.compaction_trigger = 1 << 20;  // compaction only where the writer asks
  auto opened = Db::Open(dir.Sub("db"), o);
  ASSERT_TRUE(opened.ok());
  Db* db = opened.value().get();
  const int kKeys = 64;
  const int kVersions = 240;
  auto value_of = [](int version) {
    return B("v" + std::to_string(version) + std::string(60, 'x'));
  };
  auto version_of = [](const Bytes& value) {
    return std::stoi(std::string(value.begin() + 1, value.end() - 60));
  };
  std::atomic<int> started{0};
  std::atomic<int> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> gets{0};
  std::thread writer([&] {
    for (int v = 1; v <= kVersions && !stop.load(); ++v) {
      WriteBatch batch;
      for (int k = 0; k < kKeys; ++k) {
        batch.Put(NumKey(k), value_of(v));
      }
      started.store(v, std::memory_order_release);
      Status st = db->Write(batch);
      if (st.ok() && v % 4 == 0) {
        // Let the readers make progress over the current tables first.
        uint64_t seen = gets.load();
        while (gets.load() < seen + kKeys && !stop.load()) {
          std::this_thread::yield();
        }
        st = db->CompactAll();
      }
      if (!st.ok()) {
        ADD_FAILURE() << "version " << v << ": " << st;
        break;
      }
      committed.store(v, std::memory_order_release);
    }
    stop.store(true);
  });
  auto reader = [&]() {
    std::vector<int> last(kKeys, 0);
    bool failed = false;
    while (!failed && !stop.load()) {
      for (int k = 0; k < kKeys && !failed; ++k) {
        int before = committed.load(std::memory_order_acquire);
        Bytes value;
        Status st = db->Get(NumKey(k), &value);
        int after = started.load(std::memory_order_acquire);
        gets.fetch_add(1);
        if (st.code() == StatusCode::kNotFound && before == 0) {
          continue;  // no batch committed yet
        }
        if (!st.ok()) {
          ADD_FAILURE() << "key " << k << ": " << st;
          failed = true;
          break;
        }
        int v = version_of(value);
        if (v < before || v > after || v < last[k]) {
          ADD_FAILURE() << "key " << k << " read version " << v << ", committed " << before
                        << ".." << after << ", earlier read " << last[k];
          failed = true;
        }
        last[k] = v;
      }
    }
    if (failed) {
      stop.store(true);
    }
  };
  // More readers than cores: a reader descheduled between pinning and
  // probing is still reading the tables a compaction has since dropped.
  std::vector<std::thread> readers;
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back(reader);
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(committed.load(), kVersions);
  EXPECT_GT(gets.load(), static_cast<uint64_t>(kKeys));
  // Compactions unlinked the early tables while reads were running.
  EXPECT_FALSE(FileExists(dir.Sub("db/000001.sst")));
  EXPECT_EQ(db->sstable_count(), 1);
  Bytes value;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db->Get(NumKey(k), &value).ok());
    EXPECT_EQ(value, value_of(kVersions));
  }
}

TEST(DbTest, BlockCacheServesRepeatedReads) {
  TempDir dir;
  DbOptions o = SmallDb();
  auto db = Db::Open(dir.Sub("db"), o);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.value()->Put(B("key" + std::to_string(i)), B("v")).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("key42"), &v).ok());
  uint64_t h0 = db.value()->block_cache().hits();
  ASSERT_TRUE(db.value()->Get(B("key42"), &v).ok());
  EXPECT_GT(db.value()->block_cache().hits(), h0);
}

// ------------------------------------------------------- WAL write faults --

uint64_t WalBytes(const std::string& db_dir) {
  auto size = FileSize(db_dir + "/wal.log");
  EXPECT_TRUE(size.ok());
  return size.ok() ? size.value() : 0;
}

// One batch of `count` keys starting at `first`, 100-byte values.
WriteBatch KeyBatch(int first, int count) {
  WriteBatch batch;
  for (int i = first; i < first + count; ++i) {
    batch.Put(NumKey(i), NumValue(i));
  }
  return batch;
}

TEST(DbTest, TornWalTailIsCutBeforeNewWrites) {
  TempDir dir;
  std::string path = dir.Sub("db");
  {
    auto db = Db::Open(path, SmallDb());
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.value()->Put(NumKey(i), NumValue(i)).ok());
    }
  }
  // A torn frame: a header promising 100 payload bytes, then 3 of them.
  ASSERT_TRUE(AppendFile(path + "/wal.log", Bytes{0x11, 0x22, 0x33, 0x44, 100, 0, 0, 0, 1, 2, 3})
                  .ok());
  {
    auto db = Db::Open(path, SmallDb());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put(B("after-torn-tail"), B("kept")).ok());
  }
  auto db = Db::Open(path, SmallDb());
  ASSERT_TRUE(db.ok());
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("after-torn-tail"), &v).ok())
      << "a record appended after a torn one never replays";
  EXPECT_EQ(v, B("kept"));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.value()->Get(NumKey(i), &v).ok()) << i;
  }
}

TEST(DbTest, FailedWalAppendFailsEveryWriteUntilReopen) {
  TempDir dir;
  std::string path = dir.Sub("db");
  {
    auto db = Db::Open(path, SmallDb());
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.value()->Put(NumKey(i), NumValue(i)).ok());
    }
    Status failed;
    {
      // Room for 8 bytes of the next frame: the append tears.
      FileSizeLimit limit(WalBytes(path) + 8);
      failed = db.value()->Write(KeyBatch(10, 5));
    }
    ASSERT_FALSE(failed.ok());
    Status later = db.value()->Put(B("after-failure"), B("lost"));
    EXPECT_EQ(later.code(), failed.code()) << later;
    EXPECT_EQ(db.value()->Flush().code(), failed.code());
    Bytes v;
    EXPECT_EQ(db.value()->Get(NumKey(10), &v).code(), StatusCode::kNotFound);
  }
  {
    auto db = Db::Open(path, SmallDb());
    ASSERT_TRUE(db.ok());
    Bytes v;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.value()->Get(NumKey(i), &v).ok()) << i;
    }
    EXPECT_EQ(db.value()->Get(NumKey(10), &v).code(), StatusCode::kNotFound);
    EXPECT_EQ(db.value()->Get(B("after-failure"), &v).code(), StatusCode::kNotFound);
    ASSERT_TRUE(db.value()->Put(B("after-reopen"), B("kept")).ok());
  }
  auto db = Db::Open(path, SmallDb());
  ASSERT_TRUE(db.ok());
  Bytes v;
  ASSERT_TRUE(db.value()->Get(B("after-reopen"), &v).ok());
  EXPECT_EQ(v, B("kept"));
}

TEST(DbTest, FailedFlushAfterLoggedWriteFailsTheNextCall) {
  TempDir dir;
  std::string path = dir.Sub("db");
  DbOptions o;
  o.write_buffer_size = 64 * 1024;
  WriteBatch second = KeyBatch(200, 600);
  {
    auto db = Db::Open(path, o);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Write(KeyBatch(0, 200)).ok());
    ASSERT_EQ(db.value()->sstable_count(), 0);
    Status logged;
    {
      // Room for exactly the second batch's WAL frame, but not for the
      // SSTable its memtable flush writes (which holds both batches).
      FileSizeLimit limit(WalBytes(path) + 8 + EncodeBatch(201, second).size());
      logged = db.value()->Write(second);
    }
    EXPECT_TRUE(logged.ok()) << "the batch is in the WAL: " << logged;
    EXPECT_EQ(db.value()->sstable_count(), 0);
    Status next = db.value()->Put(B("after-failure"), B("lost"));
    EXPECT_FALSE(next.ok());
    EXPECT_EQ(db.value()->Write(KeyBatch(900, 1)).code(), next.code());
  }
  auto db = Db::Open(path, o);
  ASSERT_TRUE(db.ok());
  Bytes v;
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(db.value()->Get(NumKey(i), &v).ok()) << i;
  }
  EXPECT_EQ(db.value()->Get(B("after-failure"), &v).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cdstore
