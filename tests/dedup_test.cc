// Share/file index unit tests, and server-level dedup behaviour: a
// stripe-count reopen, and two TSAN-raced scenarios — concurrent uploads
// checked against a reopened store, and an owner's lock-free reads racing
// another user's reference rewrites.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/crypto/sha256.h"
#include "src/dedup/file_index.h"
#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
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

// One typed RPC against `server`: the status an error reply carries, else
// the decoded reply.
template <class Req, class Reply>
Status Call(CdstoreServer& server, const Req& req, Reply* reply) {
  Bytes frame = Dispatch(server, Encode(req));
  RETURN_IF_ERROR(DecodeIfError(frame));
  return Decode(frame, reply);
}

class DedupServerTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;

  struct Deployment {
    TempDir dir;
    std::vector<std::unique_ptr<MemBackend>> backends;
    std::vector<std::unique_ptr<CdstoreServer>> servers;
    std::vector<std::unique_ptr<InProcTransport>> transports;

    std::vector<Transport*> TransportPtrs() {
      std::vector<Transport*> out;
      for (auto& t : transports) {
        out.push_back(t.get());
      }
      return out;
    }

    StatsReply Stats(int i) {
      Bytes frame = Dispatch(*servers[i], Encode(StatsRequest{}));
      StatsReply reply;
      EXPECT_TRUE(Decode(frame, &reply).ok());
      return reply;
    }

    // Tears down the servers (sealing containers) and recreates them over
    // the same backends + index dirs with new options.
    void Reopen(const std::function<void(ServerOptions&)>& tune) {
      transports.clear();
      servers.clear();
      for (int i = 0; i < kN; ++i) {
        ServerOptions so;
        so.index_dir = dir.Sub("server" + std::to_string(i));
        so.container_capacity = 64 * 1024;
        tune(so);
        auto server = CdstoreServer::Create(backends[i].get(), so);
        ASSERT_TRUE(server.ok()) << server.status();
        servers.push_back(std::move(server.value()));
        transports.push_back(std::make_unique<InProcTransport>(servers.back().get()));
      }
    }
  };

  // The latest generation's recipe fingerprints of every path `user` has
  // on `server`.
  static std::vector<Fingerprint> RecipeFps(CdstoreServer& server, UserId user) {
    ListPathsRequest list;
    list.user = user;
    ListPathsReply paths;
    EXPECT_TRUE(Call(server, list, &paths).ok());
    std::vector<Fingerprint> fps;
    for (const PathInfo& p : paths.paths) {
      GetFileRequest get;
      get.user = user;
      get.path_key = p.name_share;
      GetFileReply file;
      EXPECT_TRUE(Call(server, get, &file).ok());
      for (const RecipeEntry& e : file.recipe) {
        fps.push_back(e.fp);
      }
    }
    return fps;
  }

  static std::vector<uint8_t> FpQuery(CdstoreServer& server, UserId user,
                                      const std::vector<Fingerprint>& fps) {
    FpQueryRequest req;
    req.user = user;
    req.fps = fps;
    FpQueryReply reply;
    EXPECT_TRUE(Call(server, req, &reply).ok());
    return reply.duplicate;
  }

  void MakeDeployment(Deployment& d, const std::function<void(ServerOptions&)>& tune) {
    for (int i = 0; i < kN; ++i) {
      d.backends.push_back(std::make_unique<MemBackend>());
    }
    d.Reopen(tune);
  }

  ClientOptions SmallClientOptions() {
    ClientOptions o;
    o.n = kN;
    o.k = 3;
    o.rabin.min_size = 512;
    o.rabin.avg_size = 2048;
    o.rabin.max_size = 8192;
    return o;
  }
};

// A store written at one stripe count must reopen correctly at another:
// stripes are memory-only, so nothing about the
// persisted index may depend on the count.
TEST_F(DedupServerTest, StripeCountReopenRegression) {
  Deployment d;
  MakeDeployment(d, [](ServerOptions& so) { so.share_index_stripes = 16; });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(d.servers[i]->share_stripe_count(), 16u);
  }

  Bytes file = Rng(7).RandomBytes(96 * 1024);
  uint64_t unique_before = 0;
  {
    CdstoreClient client(d.TransportPtrs(), /*user=*/1, SmallClientOptions());
    ASSERT_TRUE(client.Upload("/stripes", file, nullptr).ok());
    unique_before = d.Stats(0).unique_shares;
    ASSERT_GT(unique_before, 0u);
  }

  d.Reopen([](ServerOptions& so) { so.share_index_stripes = 64; });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(d.servers[i]->share_stripe_count(), 64u);
  }
  {
    CdstoreClient client(d.TransportPtrs(), /*user=*/1, SmallClientOptions());
    auto restored = client.Download("/stripes");
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(restored.value(), file);
    // Re-uploading the identical file dedups everything: the reopened
    // index answers FpQuery correctly at the new stripe count.
    UploadStats stats;
    UploadFileOptions fo;
    fo.mode = PutFileMode::kNewGeneration;
    ASSERT_TRUE(client.Upload("/stripes", file, &stats, fo).ok());
    EXPECT_EQ(stats.transferred_share_bytes, 0u) << "reopened index missed duplicates";
    EXPECT_EQ(d.Stats(0).unique_shares, unique_before);
  }

  // And back down: 64 -> 16 (auto would also differ from 64 on most hosts).
  d.Reopen([](ServerOptions& so) { so.share_index_stripes = 16; });
  CdstoreClient client(d.TransportPtrs(), /*user=*/1, SmallClientOptions());
  auto restored = client.Download("/stripes");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), file);
}

// TSAN scenario: concurrent clients race FpQuery reads against
// UploadShares' claim-protected InsertBatch and PutFile's reference
// commits. Shared content across users maximizes cross-user dedup traffic
// through the lock-free index reads.
TEST_F(DedupServerTest, ConcurrentUploadsMatchReopenedIndex) {
  Deployment d;
  MakeDeployment(d, [](ServerOptions& so) {
    so.share_index_stripes = 8;  // fewer stripes: more lock contention
  });

  constexpr int kThreads = 4;
  Bytes shared = Rng(11).RandomBytes(64 * 1024);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread is its own user with its own client; half the data is
      // shared across users (inter-user dedup), half private.
      CdstoreClient client(d.TransportPtrs(), /*user=*/static_cast<UserId>(t + 1),
                           SmallClientOptions());
      Bytes mine = shared;
      Bytes priv = Rng(100 + t).RandomBytes(32 * 1024);
      mine.insert(mine.end(), priv.begin(), priv.end());
      for (int round = 0; round < 2; ++round) {
        UploadFileOptions fo;
        fo.mode = PutFileMode::kNewGeneration;
        fo.timestamp_ms = round + 1;
        ASSERT_TRUE(client.Upload("/race", mine, nullptr, fo).ok());
      }
      auto restored = client.Download("/race");
      ASSERT_TRUE(restored.ok()) << restored.status();
      ASSERT_EQ(restored.value(), mine);
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // The live answers stayed exact under the race: every user's FpQuery
  // over all users' recipe fingerprints (its own and the others' private
  // ones) answers exactly as the same store after a plain reopen.
  auto answers = [&]() {
    std::vector<std::vector<uint8_t>> out;
    for (int i = 0; i < kN; ++i) {
      std::vector<Fingerprint> fps;
      std::vector<size_t> own_end;
      for (UserId u = 1; u <= kThreads; ++u) {
        std::vector<Fingerprint> recipe = RecipeFps(*d.servers[i], u);
        EXPECT_FALSE(recipe.empty()) << "cloud " << i << " user " << u;
        fps.insert(fps.end(), recipe.begin(), recipe.end());
        own_end.push_back(fps.size());
      }
      for (UserId u = 1; u <= kThreads; ++u) {
        std::vector<uint8_t> dup = FpQuery(*d.servers[i], u, fps);
        // A user's own recipe fingerprints are all its duplicates.
        size_t begin = u == 1 ? 0 : own_end[u - 2];
        for (size_t j = begin; j < own_end[u - 1]; ++j) {
          EXPECT_EQ(dup[j], 1) << "cloud " << i << " user " << u << " fp " << j;
        }
        out.push_back(std::move(dup));
      }
    }
    return out;
  };
  std::vector<std::vector<uint8_t>> live = answers();
  d.Reopen([](ServerOptions& so) { so.share_index_stripes = 8; });
  EXPECT_EQ(answers(), live);
}

// Readers take no stripe lock. User A loops FpQuery and GetShares over
// shares it owns while user B rewrites its own references to the same
// shares (PutFile new-generation and replace-latest, DeleteVersion) and
// stores and orphans shares only B owns, on a Db small enough to flush and
// compact throughout. A's references never change, so every answer must
// be "duplicate", every share byte-exact, and no request denied.
TEST_F(DedupServerTest, OwnerReadsRaceAnotherUsersReferenceRewrites) {
  TempDir dir;
  MemBackend backend;
  ServerOptions so;
  so.index_dir = dir.Sub("index");
  so.share_index_stripes = 4;
  so.container_capacity = 16 * 1024;
  so.db.write_buffer_size = 4 * 1024;
  so.db.compaction_trigger = 3;
  auto created = CdstoreServer::Create(&backend, so);
  ASSERT_TRUE(created.ok()) << created.status();
  CdstoreServer& server = *created.value();
  constexpr UserId kA = 1, kB = 2;

  std::vector<Bytes> shared, b_only;
  for (uint64_t i = 0; i < 48; ++i) {
    shared.push_back(Rng(1000 + i).RandomBytes(200 + i));
  }
  for (uint64_t i = 0; i < 16; ++i) {
    b_only.push_back(Rng(5000 + i).RandomBytes(300 + i));
  }
  auto recipe_of = [](const std::vector<Bytes>& shares) {
    std::vector<RecipeEntry> recipe;
    for (const Bytes& s : shares) {
      recipe.push_back(RecipeEntry{FingerprintOf(s), static_cast<uint32_t>(s.size()),
                                   static_cast<uint32_t>(s.size())});
    }
    return recipe;
  };
  auto upload = [&](UserId user, const std::vector<Bytes>& shares) {
    UploadSharesRequest req;
    req.user = user;
    req.shares = shares;
    UploadSharesReply reply;
    return Call(server, req, &reply);
  };
  auto put = [&](UserId user, const std::vector<RecipeEntry>& recipe, PutFileMode mode,
                 uint64_t* gen) {
    PutFileRequest req;
    req.user = user;
    req.path_key = BytesOf(user == kA ? "path-a" : "path-b");
    req.mode = mode;
    req.recipe = recipe;
    PutFileReply reply;
    Status st = Call(server, req, &reply);
    *gen = reply.generation_id;
    return st;
  };
  auto delete_version = [&](uint64_t gen) {
    DeleteVersionRequest req;
    req.user = kB;
    req.path_key = BytesOf("path-b");
    req.generation_id = gen;
    DeleteVersionReply reply;
    return Call(server, req, &reply);
  };

  std::vector<RecipeEntry> a_recipe = recipe_of(shared);
  std::vector<RecipeEntry> b_recipe = a_recipe;
  for (const RecipeEntry& e : recipe_of(b_only)) {
    b_recipe.push_back(e);
  }
  std::vector<Fingerprint> fps;
  for (const RecipeEntry& e : a_recipe) {
    fps.push_back(e.fp);
  }
  uint64_t gen = 0;
  ASSERT_TRUE(upload(kA, shared).ok());
  ASSERT_TRUE(put(kA, a_recipe, PutFileMode::kNewGeneration, &gen).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> wrong{0};
  auto reader = [&]() {
    FpQueryRequest query;
    query.user = kA;
    query.fps = fps;
    GetSharesRequest get;
    get.user = kA;
    get.fps = fps;
    while (!stop.load()) {
      FpQueryReply dup;
      Status st = Call(server, query, &dup);
      if (!st.ok() || dup.duplicate != std::vector<uint8_t>(fps.size(), 1)) {
        ADD_FAILURE() << "FpQuery: " << st;
        wrong.fetch_add(1);
      }
      GetSharesReply got;
      st = Call(server, get, &got);
      if (!st.ok() || got.shares != shared) {
        ADD_FAILURE() << "GetShares: " << st;
        wrong.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back(reader);
  }
  // B's rounds: store its private shares (re-stored after each orphaning),
  // append a generation, replace it in place, delete the previous one, and
  // every other round delete everything B holds.
  Status writer_status;
  uint64_t prev = 0;
  for (int round = 0; round < 24 && writer_status.ok(); ++round) {
    uint64_t next = 0;
    writer_status = upload(kB, b_only);
    if (writer_status.ok()) {
      writer_status = put(kB, b_recipe, PutFileMode::kNewGeneration, &next);
    }
    if (writer_status.ok()) {
      writer_status = put(kB, b_recipe, PutFileMode::kReplaceLatest, &gen);
    }
    if (writer_status.ok() && prev != 0) {
      writer_status = delete_version(prev);
    }
    prev = next;
    if (writer_status.ok() && round % 2 == 1) {
      writer_status = delete_version(next);
      prev = 0;
    }
    while (writer_status.ok() && reads.load() < static_cast<uint64_t>(round + 1)) {
      std::this_thread::yield();  // every round overlaps some reads
    }
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_TRUE(writer_status.ok()) << writer_status;
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace cdstore
