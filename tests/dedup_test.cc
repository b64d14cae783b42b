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

// Stages `user`'s reference change and commits it, as a server RPC does.
Status CommitReferences(Db* db, ShareIndex& index, const std::vector<Fingerprint>& add,
                        const std::vector<Fingerprint>& drop, UserId user,
                        ShareIndex::ReferenceDelta* delta = nullptr,
                        bool skip_unknown_drops = false) {
  WriteBatch batch;
  ShareIndex::ReferenceDelta ignored;
  RETURN_IF_ERROR(index.StageReferences(add, drop, user, skip_unknown_drops, &batch,
                                        delta != nullptr ? delta : &ignored));
  return db->Write(batch);
}

TEST_F(DedupTest, InsertLookupShare) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("share-content"));
  EXPECT_FALSE(index.Lookup(fp).value().has_value());
  ASSERT_TRUE(index.InsertBatch({{fp, {1, 0, 100}}}).ok());
  auto loc = index.Lookup(fp);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(loc.value().has_value());
  EXPECT_EQ(loc.value()->container_id, 1u);
  // An inserted share has no owner yet.
  EXPECT_FALSE(index.UserHasShare(fp, 1).value().has_value());
}

TEST_F(DedupTest, PerUserOwnershipIsIsolated) {
  // The crux of the side-channel defence (§3.3): user B must not appear to
  // own user A's share even though it is globally deduplicated.
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("x"));
  ASSERT_TRUE(index.InsertBatch({{fp, {1, 0, 8}}}).ok());
  ASSERT_TRUE(CommitReferences(db_.get(), index, {fp}, {}, /*user=*/1).ok());
  auto owned = index.UserHasShare(fp, 1);
  ASSERT_TRUE(owned.ok() && owned.value().has_value());
  EXPECT_EQ(owned.value()->container_id, 1u);
  EXPECT_EQ(owned.value()->share_size, 8u);
  EXPECT_FALSE(index.UserHasShare(fp, 2).value().has_value());
}

TEST_F(DedupTest, ReferenceCountingLifecycle) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("y"));
  ASSERT_TRUE(index.InsertBatch({{fp, {1, 0, 8}}}).ok());
  ShareIndex::ReferenceDelta delta;
  // Two refs from user 1 in one recipe: the first reference ever counts the
  // share's bytes once.
  ASSERT_TRUE(CommitReferences(db_.get(), index, {fp, fp}, {}, 1, &delta).ok());
  EXPECT_EQ(delta.first_ref_bytes, 8u);
  ASSERT_TRUE(CommitReferences(db_.get(), index, {fp}, {}, 2, &delta).ok());
  EXPECT_EQ(delta.first_ref_bytes, 0u);

  ASSERT_TRUE(CommitReferences(db_.get(), index, {}, {fp}, 1, &delta).ok());
  EXPECT_EQ(delta.orphaned, 0u);
  ASSERT_TRUE(CommitReferences(db_.get(), index, {}, {fp}, 1, &delta).ok());
  EXPECT_EQ(delta.orphaned, 0u);
  EXPECT_FALSE(index.UserHasShare(fp, 1).value().has_value());  // user 1 fully released
  EXPECT_TRUE(index.UserHasShare(fp, 2).value().has_value());
  ASSERT_TRUE(CommitReferences(db_.get(), index, {}, {fp}, 2, &delta).ok());
  EXPECT_EQ(delta.orphaned, 1u) << "last reference must mark the share collectible";
  EXPECT_EQ(delta.orphaned_bytes, 8u);
  EXPECT_FALSE(index.Lookup(fp).value().has_value()) << "an orphan leaves the index";
}

TEST_F(DedupTest, DropWithoutReferenceFails) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("z"));
  Fingerprint unknown = FingerprintOf(BytesOf("never-stored"));
  ASSERT_TRUE(index.InsertBatch({{fp, {1, 0, 8}}}).ok());
  ASSERT_TRUE(CommitReferences(db_.get(), index, {fp}, {}, 1).ok());
  EXPECT_EQ(CommitReferences(db_.get(), index, {}, {fp}, 5).code(),
            StatusCode::kFailedPrecondition);
  // Net over one call: two drops against one held reference.
  EXPECT_EQ(CommitReferences(db_.get(), index, {}, {fp, fp}, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(index.UserHasShare(fp, 1).value().has_value());
  // An unindexed drop fails, unless the caller (PutFile's replace path)
  // asks for it to be skipped; an unindexed add always fails.
  EXPECT_EQ(CommitReferences(db_.get(), index, {}, {unknown}, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(CommitReferences(db_.get(), index, {}, {unknown}, 1, nullptr,
                               /*skip_unknown_drops=*/true)
                  .ok());
  EXPECT_EQ(CommitReferences(db_.get(), index, {unknown}, {}, 1, nullptr, true).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(index.UserHasShare(fp, 1).value().has_value());
}

TEST_F(DedupTest, UniqueShareCountTracksInserts) {
  ShareIndex index(db_.get());
  std::vector<std::pair<Fingerprint, ShareLocation>> entries;
  for (int i = 0; i < 25; ++i) {
    entries.emplace_back(FingerprintOf(Rng(i).RandomBytes(10)), ShareLocation{1, 0, 10});
  }
  ASSERT_TRUE(index.InsertBatch(entries).ok());
  EXPECT_EQ(index.UniqueShareCount().value(), 25u);
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
  WriteBatch batch;
  ASSERT_TRUE(
      files.StageAppendGeneration(7, path_hash, NameOf(path_key), rec, &batch, &new_path).ok());
  EXPECT_TRUE(new_path);
  EXPECT_EQ(files.GetGeneration(7, path_hash, 0).status().code(), StatusCode::kNotFound)
      << "staging writes nothing";
  ASSERT_TRUE(db_->Write(batch).ok());
  auto got = files.GetGeneration(7, path_hash, /*generation=*/0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().file_size, 1000u);
  EXPECT_EQ(got.value().recipe_container_id, 12u);
  // A different user cannot see the file.
  EXPECT_EQ(files.GetGeneration(8, path_hash, 0).status().code(), StatusCode::kNotFound);
  batch.Clear();
  ASSERT_TRUE(files.StageDeleteGenerations(7, path_hash, {got.value()}, {}, &batch).ok());
  ASSERT_TRUE(db_->Write(batch).ok());
  EXPECT_EQ(files.GetGeneration(7, path_hash, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(files.ListGenerations(7, path_hash).status().code(), StatusCode::kNotFound);
}

TEST_F(DedupTest, FileIndexDeletesSeveralGenerationsInOneBatch) {
  // One batch deletes generations 2 and 3 of four: the head's count and
  // latest come from the survivors, not from re-reading staged state.
  FileIndex files(db_.get());
  Bytes path_key = BytesOf("multi");
  Bytes path_hash = Sha256::Hash(path_key);
  for (int i = 0; i < 4; ++i) {
    WriteBatch batch;
    bool new_path = false;
    ASSERT_TRUE(files
                    .StageAppendGeneration(3, path_hash, NameOf(path_key), GenerationRecord{},
                                           &batch, &new_path)
                    .ok());
    ASSERT_TRUE(db_->Write(batch).ok());
  }
  auto gens = files.ListGenerations(3, path_hash);
  ASSERT_TRUE(gens.ok());
  ASSERT_EQ(gens.value().size(), 4u);
  const std::vector<GenerationRecord>& g = gens.value();
  WriteBatch batch;
  ASSERT_TRUE(files.StageDeleteGenerations(3, path_hash, {g[3], g[1]}, {g[0], g[2]}, &batch)
                  .ok());
  ASSERT_TRUE(db_->Write(batch).ok());
  auto page = files.ScanPaths(3, {}, 16);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page.value().entries.size(), 1u);
  EXPECT_EQ(page.value().entries[0].head.generation_count, 2u);
  EXPECT_EQ(page.value().entries[0].head.latest_generation, 3u);
  EXPECT_EQ(page.value().entries[0].head.next_generation, 5u);
  EXPECT_EQ(files.GetGeneration(3, path_hash, 0).value().generation_id, 3u);
  EXPECT_EQ(files.ListGenerations(3, path_hash).value().size(), 2u);
}

TEST_F(DedupTest, FileCountPerUser) {
  FileIndex files(db_.get());
  auto put = [&](UserId user, const std::string& path) {
    Bytes path_key = BytesOf(path);
    bool new_path = false;
    WriteBatch batch;
    ASSERT_TRUE(files
                    .StageAppendGeneration(user, Sha256::Hash(path_key), NameOf(path_key),
                                           GenerationRecord{}, &batch, &new_path)
                    .ok());
    ASSERT_TRUE(db_->Write(batch).ok());
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
  // One batch stages both indices' records, as PutFile's commit does.
  WriteBatch batch;
  shares.StageInserts({{fp, {1, 0, 8}}}, &batch);
  Bytes path_key = BytesOf("p");
  bool new_path = false;
  ASSERT_TRUE(files
                  .StageAppendGeneration(1, Sha256::Hash(path_key), NameOf(path_key),
                                         GenerationRecord{}, &batch, &new_path)
                  .ok());
  ASSERT_TRUE(db_->Write(batch).ok());
  EXPECT_EQ(shares.UniqueShareCount().value(), 1u);
  EXPECT_EQ(files.ScanPaths(1, {}, 16).value().entries.size(), 1u);
}

TEST_F(DedupTest, IndexSurvivesDbReopen) {
  Fingerprint fp = FingerprintOf(BytesOf("durable"));
  {
    ShareIndex index(db_.get());
    ASSERT_TRUE(index.InsertBatch({{fp, {3, 1, 99}}}).ok());
    ASSERT_TRUE(CommitReferences(db_.get(), index, {fp}, {}, 11).ok());
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
