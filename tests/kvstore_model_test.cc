// Model-based randomized testing of the LSM KV store: a long random
// sequence of Put/Delete/Get/Flush/Compact/Reopen operations is mirrored
// against a std::map reference model; at every step the store must agree
// with the model (including under iterator scans and snapshots).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/kvstore/db.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

Bytes SmallKey(Rng* rng) {
  // Small key space (256 keys) so overwrites/deletes collide often.
  return BytesOf("key" + std::to_string(rng->Uniform(256)));
}

// 64-byte blocks hold about one record each, so the versions of one key
// straddle block boundaries and every SSTable probe crosses blocks.
constexpr size_t kTinyBlock = 64;

void RunRandomOps(uint64_t seed, size_t block_size) {
  TempDir dir;
  DbOptions opts;
  opts.write_buffer_size = 8 * 1024;  // frequent flushes
  opts.compaction_trigger = 3;
  opts.block_size = block_size;
  auto db = Db::Open(dir.Sub("db"), opts);
  ASSERT_TRUE(db.ok());

  std::map<Bytes, Bytes> model;
  Rng rng(seed);
  const int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 45) {  // Put
      Bytes k = SmallKey(&rng);
      Bytes v = rng.RandomBytes(1 + rng.Uniform(200));
      ASSERT_TRUE(db.value()->Put(k, v).ok());
      model[k] = v;
    } else if (action < 65) {  // Delete (possibly absent)
      Bytes k = SmallKey(&rng);
      ASSERT_TRUE(db.value()->Delete(k).ok());
      model.erase(k);
    } else if (action < 90) {  // Get
      Bytes k = SmallKey(&rng);
      Bytes v;
      Status st = db.value()->Get(k, &v);
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << "op " << op;
      } else {
        ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
        EXPECT_EQ(v, it->second) << "op " << op;
      }
    } else if (action < 94) {  // Flush
      ASSERT_TRUE(db.value()->Flush().ok());
    } else if (action < 96) {  // Compact
      ASSERT_TRUE(db.value()->CompactAll().ok());
    } else if (action < 98) {  // Full scan vs model
      auto it = db.value()->NewIterator();
      auto mit = model.begin();
      for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
        ASSERT_NE(mit, model.end()) << "op " << op << ": extra key in db";
        EXPECT_EQ(it->key(), mit->first) << "op " << op;
        EXPECT_EQ(it->value(), mit->second) << "op " << op;
      }
      EXPECT_EQ(mit, model.end()) << "op " << op << ": db missing keys";
      EXPECT_TRUE(it->status().ok()) << "op " << op << ": " << it->status();
    } else {  // Reopen (crash-free restart)
      db.value().reset();
      db = Db::Open(dir.Sub("db"), opts);
      ASSERT_TRUE(db.ok()) << "op " << op;
    }
  }

  // Final full comparison.
  auto it = db.value()->NewIterator();
  size_t count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    auto mit = model.find(it->key());
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->value(), mit->second);
    ++count;
  }
  EXPECT_EQ(count, model.size());
  EXPECT_TRUE(it->status().ok()) << it->status();
}

class KvModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvModelTest, RandomOpsAgreeWithMapModel) {
  RunRandomOps(GetParam(), DbOptions().block_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvModelTest,
                         ::testing::Values(1ull, 2ull, 3ull, 17ull, 99ull, 1234ull));

class TinyBlockKvModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TinyBlockKvModelTest, RandomOpsAgreeWithMapModel) {
  RunRandomOps(GetParam(), kTinyBlock);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinyBlockKvModelTest,
                         ::testing::Values(1ull, 2ull, 3ull, 17ull, 99ull, 1234ull));

void RunSnapshotChurn(uint64_t seed, size_t block_size) {
  TempDir dir;
  DbOptions opts;
  opts.write_buffer_size = 4 * 1024;
  opts.block_size = block_size;
  auto db = Db::Open(dir.Sub("db"), opts);
  ASSERT_TRUE(db.ok());

  Rng rng(seed);
  // Phase 1: populate and freeze.
  std::map<Bytes, Bytes> frozen;
  for (int i = 0; i < 300; ++i) {
    Bytes k = SmallKey(&rng);
    Bytes v = rng.RandomBytes(50);
    ASSERT_TRUE(db.value()->Put(k, v).ok());
    frozen[k] = v;
  }
  uint64_t snap = db.value()->GetSnapshot();

  // Phase 2: churn heavily (overwrites, deletes, flushes).
  for (int i = 0; i < 600; ++i) {
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(db.value()->Put(SmallKey(&rng), rng.RandomBytes(60)).ok());
    } else {
      ASSERT_TRUE(db.value()->Delete(SmallKey(&rng)).ok());
    }
    if (i % 200 == 199) {
      ASSERT_TRUE(db.value()->Flush().ok());
    }
  }

  // The snapshot still reads phase-1 state exactly.
  for (const auto& [k, v] : frozen) {
    Bytes got;
    ASSERT_TRUE(db.value()->GetAt(snap, k, &got).ok()) << "snapshot lost a key";
    EXPECT_EQ(got, v);
  }
  db.value()->ReleaseSnapshot(snap);
}

class SnapshotModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotModelTest, SnapshotsSeeFrozenState) {
  RunSnapshotChurn(GetParam(), DbOptions().block_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotModelTest, ::testing::Values(7ull, 42ull, 4096ull));

class TinyBlockSnapshotModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TinyBlockSnapshotModelTest, SnapshotsSeeFrozenState) {
  RunSnapshotChurn(GetParam(), kTinyBlock);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinyBlockSnapshotModelTest,
                         ::testing::Values(7ull, 42ull, 4096ull));

}  // namespace
}  // namespace cdstore
