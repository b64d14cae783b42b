#include <gtest/gtest.h>

#include "src/crypto/sha256.h"
#include "src/dedup/file_index.h"
#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

class DedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Db::Open(dir_.Sub("db"), DbOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db.value());
  }

  TempDir dir_;
  std::unique_ptr<Db> db_;
};

TEST_F(DedupTest, FingerprintIsSha256) {
  Fingerprint fp = FingerprintOf(BytesOf("abc"));
  EXPECT_EQ(HexEncode(fp), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(fp.size(), kFingerprintSize);
}

TEST_F(DedupTest, ShareEntrySerializationRoundTrip) {
  ShareIndexEntry e;
  e.location = {42, 7, 2700};
  e.owners[1] = 3;
  e.owners[9] = 1;
  auto back = ShareIndexEntry::Deserialize(e.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().location.container_id, 42u);
  EXPECT_EQ(back.value().location.index_in_container, 7u);
  EXPECT_EQ(back.value().location.share_size, 2700u);
  EXPECT_EQ(back.value().owners.at(1), 3u);
  EXPECT_EQ(back.value().owners.at(9), 1u);
}

TEST_F(DedupTest, InsertLookupShare) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("share-content"));
  EXPECT_FALSE(index.Lookup(fp).value().has_value());
  ASSERT_TRUE(index.Insert(fp, {1, 0, 100}).ok());
  auto loc = index.Lookup(fp);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(loc.value().has_value());
  EXPECT_EQ(loc.value()->container_id, 1u);
  // Double insert rejected.
  EXPECT_EQ(index.Insert(fp, {2, 0, 100}).code(), StatusCode::kAlreadyExists);
}

TEST_F(DedupTest, PerUserOwnershipIsIsolated) {
  // The crux of the side-channel defence (§3.3): user B must not appear to
  // own user A's share even though it is globally deduplicated.
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("x"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(index.AddReference(fp, /*user=*/1).ok());
  auto owned = index.UserHasShare(fp, 1);
  ASSERT_TRUE(owned.ok() && owned.value().has_value());
  EXPECT_EQ(owned.value()->container_id, 1u);
  EXPECT_EQ(owned.value()->share_size, 8u);
  EXPECT_FALSE(index.UserHasShare(fp, 2).value().has_value());
}

TEST_F(DedupTest, ReferenceCountingLifecycle) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("y"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(index.AddReference(fp, 1).ok());
  ASSERT_TRUE(index.AddReference(fp, 1).ok());  // two refs from user 1
  ASSERT_TRUE(index.AddReference(fp, 2).ok());  // one from user 2

  bool orphaned = true;
  ASSERT_TRUE(index.DropReference(fp, 1, &orphaned).ok());
  EXPECT_FALSE(orphaned);
  ASSERT_TRUE(index.DropReference(fp, 1, &orphaned).ok());
  EXPECT_FALSE(orphaned);
  EXPECT_FALSE(index.UserHasShare(fp, 1).value().has_value());  // user 1 fully released
  EXPECT_TRUE(index.UserHasShare(fp, 2).value().has_value());
  ASSERT_TRUE(index.DropReference(fp, 2, &orphaned).ok());
  EXPECT_TRUE(orphaned) << "last reference must mark the share collectible";
}

TEST_F(DedupTest, DropWithoutReferenceFails) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("z"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  bool orphaned = false;
  EXPECT_EQ(index.DropReference(fp, 5, &orphaned).code(), StatusCode::kFailedPrecondition);
}

TEST_F(DedupTest, UniqueShareCountTracksInserts) {
  ShareIndex index(db_.get());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(index.Insert(FingerprintOf(Rng(i).RandomBytes(10)), {1, 0, 10}).ok());
  }
  EXPECT_EQ(index.UniqueShareCount().value(), 25u);
}

TEST_F(DedupTest, EraseRemovesEntry) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("gone"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(index.Erase(fp).ok());
  EXPECT_FALSE(index.Lookup(fp).value().has_value());
}

// A path's namespace fields as a PutFile would supply them.
PathNameInfo NameOf(const Bytes& path_key) {
  PathNameInfo name;
  name.name_share = path_key;
  return name;
}

TEST_F(DedupTest, FileIndexPutGetDelete) {
  FileIndex files(db_.get());
  GenerationRecord rec;
  rec.file_size = 1000;
  rec.num_secrets = 3;
  rec.recipe_container_id = 12;
  rec.recipe_index = 4;
  Bytes path_key = BytesOf("encoded-path-share");
  Bytes path_hash = Sha256::Hash(path_key);
  bool new_path = false;
  ASSERT_TRUE(files.AppendGeneration(7, path_hash, NameOf(path_key), rec, &new_path).ok());
  EXPECT_TRUE(new_path);
  auto got = files.GetGeneration(7, path_hash, /*generation=*/0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().file_size, 1000u);
  EXPECT_EQ(got.value().recipe_container_id, 12u);
  // A different user cannot see the file.
  EXPECT_EQ(files.GetGeneration(8, path_hash, 0).status().code(), StatusCode::kNotFound);
  bool removed = false;
  ASSERT_TRUE(files.DeleteGeneration(7, path_hash, got.value().generation_id, &removed).ok());
  EXPECT_TRUE(removed);
  EXPECT_EQ(files.GetGeneration(7, path_hash, 0).status().code(), StatusCode::kNotFound);
}

TEST_F(DedupTest, FileCountPerUser) {
  FileIndex files(db_.get());
  auto put = [&](UserId user, const std::string& path) {
    Bytes path_key = BytesOf(path);
    bool new_path = false;
    ASSERT_TRUE(files
                    .AppendGeneration(user, Sha256::Hash(path_key), NameOf(path_key),
                                      GenerationRecord{}, &new_path)
                    .ok());
  };
  for (int i = 0; i < 5; ++i) {
    put(1, "path" + std::to_string(i));
  }
  put(2, "other");
  EXPECT_EQ(files.ScanPaths(1, {}, 16).value().entries.size(), 5u);
  EXPECT_EQ(files.ScanPaths(2, {}, 16).value().entries.size(), 1u);
  EXPECT_EQ(files.ScanPaths(3, {}, 16).value().entries.size(), 0u);
}

TEST_F(DedupTest, IndicesCoexistInOneDb) {
  // Share and file indices share the Db via key prefixes.
  ShareIndex shares(db_.get());
  FileIndex files(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("s"));
  ASSERT_TRUE(shares.Insert(fp, {1, 0, 8}).ok());
  Bytes path_key = BytesOf("p");
  bool new_path = false;
  ASSERT_TRUE(files
                  .AppendGeneration(1, Sha256::Hash(path_key), NameOf(path_key),
                                    GenerationRecord{}, &new_path)
                  .ok());
  EXPECT_EQ(shares.UniqueShareCount().value(), 1u);
  EXPECT_EQ(files.ScanPaths(1, {}, 16).value().entries.size(), 1u);
}

TEST_F(DedupTest, IndexSurvivesDbReopen) {
  Fingerprint fp = FingerprintOf(BytesOf("durable"));
  {
    ShareIndex index(db_.get());
    ASSERT_TRUE(index.Insert(fp, {3, 1, 99}).ok());
    ASSERT_TRUE(index.AddReference(fp, 11).ok());
  }
  db_.reset();
  auto reopened = Db::Open(dir_.Sub("db"), DbOptions{});
  ASSERT_TRUE(reopened.ok());
  ShareIndex index(reopened.value().get());
  EXPECT_TRUE(index.UserHasShare(fp, 11).value().has_value());
  auto loc = index.Lookup(fp);
  ASSERT_TRUE(loc.value().has_value());
  EXPECT_EQ(loc.value()->share_size, 99u);
}

}  // namespace
}  // namespace cdstore
