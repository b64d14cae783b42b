// Dedup lookup-acceleration tests (src/dedup/index_accel.h): bloom
// false-positive rate within the configured bound, read/write exactness of
// the accel-fronted ShareIndex against a plain one, end-to-end dedup-stat
// byte-equivalence accel-on vs accel-off across DeleteVersion /
// ApplyRetention / GC, the stripe-count reopen regression, and two
// TSAN-raced scenarios: concurrent uploads checked against an accel-off
// reopen, and an owner's lock-free reads racing another user's reference
// rewrites of the same shares.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/dedup/index_accel.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/trace/synthetic.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

Fingerprint TestFp(uint64_t i, const char* tag) {
  return FingerprintOf(BytesOf(std::string(tag) + std::to_string(i)));
}

// One typed RPC against `server`: the status an error reply carries, else
// the decoded reply.
template <class Req, class Reply>
Status Call(CdstoreServer& server, const Req& req, Reply* reply) {
  Bytes frame = Dispatch(server, Encode(req));
  RETURN_IF_ERROR(DecodeIfError(frame));
  return Decode(frame, reply);
}

TEST(DedupAccelUnitTest, BloomFalsePositiveRateWithinBound) {
  TempDir dir;
  auto db = Db::Open(dir.Sub("db"), DbOptions{});
  ASSERT_TRUE(db.ok());
  ShareIndex index(db.value().get());

  constexpr uint64_t kIndexed = 20000;
  std::vector<std::pair<Fingerprint, ShareLocation>> entries;
  entries.reserve(kIndexed);
  for (uint64_t i = 0; i < kIndexed; ++i) {
    entries.emplace_back(TestFp(i, "present"), ShareLocation{1, 0, 64});
  }
  ASSERT_TRUE(index.InsertBatch(entries).ok());

  DedupAccelOptions ao;
  ao.stripes = 16;
  ao.bloom_bits_per_key = 10;
  auto accel = DedupIndexAccel::Build(&index, ao);
  ASSERT_TRUE(accel.ok());
  EXPECT_EQ(accel.value()->stats().rebuild_keys, kIndexed);

  // No false negatives: every indexed fingerprint must pass the filter.
  for (uint64_t i = 0; i < kIndexed; ++i) {
    EXPECT_FALSE(accel.value()->DefinitelyAbsent(TestFp(i, "present")))
        << "bloom false negative at " << i;
  }

  // The false-positive rate over absent keys stays within ~3x the 1%
  // design point of 10 bits/key (generous margin against hash luck).
  constexpr uint64_t kProbes = 20000;
  uint64_t maybes = 0;
  for (uint64_t i = 0; i < kProbes; ++i) {
    if (!accel.value()->DefinitelyAbsent(TestFp(i, "absent"))) {
      ++maybes;
    }
  }
  double fp_rate = static_cast<double>(maybes) / kProbes;
  EXPECT_LT(fp_rate, 0.03) << maybes << " maybes over " << kProbes << " absent probes";
}

// Differential harness: the same operation sequence against an
// accel-fronted index and a plain one must be observationally identical.
TEST(DedupAccelUnitTest, AccelFrontedIndexMatchesPlainIndex) {
  TempDir dir;
  auto db_a = Db::Open(dir.Sub("a"), DbOptions{});
  auto db_b = Db::Open(dir.Sub("b"), DbOptions{});
  ASSERT_TRUE(db_a.ok() && db_b.ok());
  ShareIndex accel_index(db_a.value().get());
  ShareIndex plain_index(db_b.value().get());

  DedupAccelOptions ao;
  ao.stripes = 8;
  auto accel = DedupIndexAccel::Build(&accel_index, ao);
  ASSERT_TRUE(accel.ok());
  accel_index.AttachAccel(accel.value().get());

  constexpr int kFps = 200;
  constexpr int kUsers = 4;
  Rng rng(42);
  auto check_all = [&](const char* when) {
    for (int i = 0; i < kFps; ++i) {
      Fingerprint fp = TestFp(i, "diff");
      auto la = accel_index.Lookup(fp);
      auto lb = plain_index.Lookup(fp);
      ASSERT_TRUE(la.ok() && lb.ok());
      ASSERT_EQ(la.value().has_value(), lb.value().has_value()) << when << " fp " << i;
      if (la.value().has_value()) {
        EXPECT_EQ(la.value()->container_id, lb.value()->container_id);
        EXPECT_EQ(la.value()->share_size, lb.value()->share_size);
      }
      for (UserId u = 1; u <= kUsers; ++u) {
        auto ha = accel_index.UserHasShare(fp, u);
        auto hb = plain_index.UserHasShare(fp, u);
        ASSERT_TRUE(ha.ok() && hb.ok());
        ASSERT_EQ(ha.value().has_value(), hb.value().has_value())
            << when << " fp " << i << " user " << u;
        if (ha.value().has_value()) {
          EXPECT_EQ(ha.value()->container_id, hb.value()->container_id);
          EXPECT_EQ(ha.value()->index_in_container, hb.value()->index_in_container);
          EXPECT_EQ(ha.value()->share_size, hb.value()->share_size);
        }
      }
    }
  };

  // Stages the same reference change into both indices and commits each,
  // as a server RPC does; both must agree on the outcome.
  auto mirror_refs = [&](const std::vector<Fingerprint>& add,
                         const std::vector<Fingerprint>& drop, UserId user,
                         bool skip_unknown_drops) {
    WriteBatch ba, bb;
    ShareIndex::ReferenceDelta da, db2;
    Status sa = accel_index.StageReferences(add, drop, user, skip_unknown_drops, &ba, &da);
    Status sb = plain_index.StageReferences(add, drop, user, skip_unknown_drops, &bb, &db2);
    ASSERT_EQ(sa.code(), sb.code());
    if (sa.ok()) {
      ASSERT_EQ(da.first_ref_bytes, db2.first_ref_bytes);
      ASSERT_EQ(da.orphaned, db2.orphaned);
      ASSERT_EQ(da.orphaned_bytes, db2.orphaned_bytes);
      ASSERT_TRUE(db_a.value()->Write(ba).ok());
      ASSERT_TRUE(db_b.value()->Write(bb).ok());
    }
  };

  // Interleaved mutations, mirrored to both indices, with full reads
  // between rounds: a fingerprint the bloom wrongly denied would surface
  // as divergence.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < kFps; ++i) {
      Fingerprint fp = TestFp(i, "diff");
      UserId user = 1 + (rng.Uniform(kUsers));
      switch (rng.Uniform(5)) {
        case 0: {
          // Inserts only what is absent, as the server's claim check does.
          auto present = plain_index.Lookup(fp);
          ASSERT_TRUE(present.ok());
          if (present.value().has_value()) {
            break;
          }
          ShareLocation loc{static_cast<uint64_t>(round + 1), 0,
                            static_cast<uint32_t>(32 + i % 64)};
          ASSERT_TRUE(accel_index.InsertBatch({{fp, loc}}).ok());
          ASSERT_TRUE(plain_index.InsertBatch({{fp, loc}}).ok());
          break;
        }
        case 1:
          mirror_refs({fp}, {}, user, /*skip_unknown_drops=*/false);
          break;
        case 2:
          mirror_refs({}, {fp, TestFp(rng.Uniform(kFps), "diff")}, user,
                      /*skip_unknown_drops=*/false);
          break;
        case 3: {
          // A GC move.
          ShareLocation loc{static_cast<uint64_t>(100 + round), static_cast<uint32_t>(i),
                            static_cast<uint32_t>(32 + i % 64)};
          WriteBatch ba, bb;
          Status sa = accel_index.StageLocation(fp, loc, &ba);
          Status sb = plain_index.StageLocation(fp, loc, &bb);
          ASSERT_EQ(sa.code(), sb.code());
          if (sa.ok()) {
            ASSERT_TRUE(db_a.value()->Write(ba).ok());
            ASSERT_TRUE(db_b.value()->Write(bb).ok());
          }
          break;
        }
        case 4:
          mirror_refs({fp}, {TestFp(rng.Uniform(kFps), "diff")}, user,
                      /*skip_unknown_drops=*/true);
          break;
      }
    }
    check_all("round");
  }
  // The accel actually participated: reads went through the bloom, and
  // the ones it could not rule out went on to the LSM.
  DedupAccelStats stats = accel.value()->stats();
  EXPECT_GT(stats.bloom_negative, 0u);
  EXPECT_GT(stats.bloom_maybe, 0u);
}

class DedupAccelE2eTest : public ::testing::Test {
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

    uint64_t TotalBackendBytes() {
      uint64_t total = 0;
      for (auto& b : backends) {
        total += b->total_bytes();
      }
      return total;
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

// The tentpole's exactness criterion: the same workload — uploads with
// cross-generation dedup, DeleteVersion, ApplyRetention, GC — produces
// byte-identical dedup stats and backend bytes with the accel on and off.
TEST_F(DedupAccelE2eTest, DedupStatsByteIdenticalAccelOnVsOff) {
  Deployment on, off;
  MakeDeployment(on, [](ServerOptions& so) { so.dedup_accel = true; });
  MakeDeployment(off, [](ServerOptions& so) { so.dedup_accel = false; });
  ASSERT_NE(on.servers[0]->dedup_accel(), nullptr);
  ASSERT_EQ(off.servers[0]->dedup_accel(), nullptr);

  SyntheticDatasetOptions dopts = SyntheticDataset::GenerationSeriesDefaults();
  dopts.num_weeks = 4;
  dopts.user_bytes = 128 * 1024;
  dopts.segment_bytes = 16 * 1024;
  dopts.weekly_mod_rate = 0.25;
  dopts.weekly_growth_rate = 0.1;
  SyntheticDataset data(dopts);

  auto run_workload = [&](Deployment& d) {
    CdstoreClient client(d.TransportPtrs(), /*user=*/1, SmallClientOptions());
    for (int w = 0; w < 4; ++w) {
      UploadFileOptions fo;
      fo.mode = PutFileMode::kNewGeneration;
      fo.timestamp_ms = (w + 1) * 1000;
      UploadStats stats;
      ASSERT_TRUE(client.Upload("/data", data.FileFor(0, w), &stats, fo).ok());
    }
    // DeleteVersion drops generation 1's references.
    ASSERT_TRUE(client.DeleteVersion("/data", 1).ok());
    // ApplyRetention prunes down to the last two generations.
    RetentionPolicy policy;
    policy.keep_last_n = 2;
    ASSERT_TRUE(client.ApplyRetention("/data", policy).ok());
    // GC rewrites partially dead containers (staged location moves).
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(d.servers[i]->CollectGarbage().ok());
    }
    // Post-maintenance restore must still be intact.
    CdstoreClient reader(d.TransportPtrs(), /*user=*/1, SmallClientOptions());
    auto restored = reader.Download("/data");
    ASSERT_TRUE(restored.ok()) << restored.status();
    ASSERT_EQ(restored.value(), data.FileFor(0, 3));
  };

  run_workload(on);
  run_workload(off);

  for (int i = 0; i < kN; ++i) {
    StatsReply a = on.Stats(i);
    StatsReply b = off.Stats(i);
    EXPECT_EQ(a.unique_shares, b.unique_shares) << "cloud " << i;
    EXPECT_EQ(a.stored_bytes, b.stored_bytes) << "cloud " << i;
    EXPECT_EQ(a.file_count, b.file_count) << "cloud " << i;
    EXPECT_EQ(a.generation_count, b.generation_count) << "cloud " << i;
    EXPECT_EQ(on.backends[i]->total_bytes(), off.backends[i]->total_bytes()) << "cloud " << i;
  }
  // The run exercised the accel, not a disabled shell.
  DedupAccelStats stats = on.servers[0]->dedup_accel()->stats();
  EXPECT_GT(stats.bloom_negative, 0u);
  EXPECT_GT(stats.bloom_maybe, 0u);
}

// A store written at one stripe count must reopen correctly at another:
// stripes (and per-stripe blooms) are memory-only, so nothing about the
// persisted index may depend on the count.
TEST_F(DedupAccelE2eTest, StripeCountReopenRegression) {
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
    // The accel rebuilt its blooms from the reopened index.
    ASSERT_NE(d.servers[i]->dedup_accel(), nullptr);
    EXPECT_GT(d.servers[i]->dedup_accel()->stats().rebuild_keys, 0u);
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
// through the bloom.
TEST_F(DedupAccelE2eTest, ConcurrentUploadsRaceAccel) {
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
  ASSERT_GT(d.servers[0]->dedup_accel()->stats().inserts, 0u);

  // Accel stayed exact under the race: every user's FpQuery over all
  // users' recipe fingerprints (its own and the others' private ones)
  // answers exactly as the same store reopened without the accel.
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
  d.Reopen([](ServerOptions& so) {
    so.share_index_stripes = 8;
    so.dedup_accel = false;
  });
  ASSERT_EQ(d.servers[0]->dedup_accel(), nullptr);
  EXPECT_EQ(answers(), live);
}

// Readers take no stripe lock. User A loops FpQuery and GetShares over
// shares it owns while user B rewrites its own references to the same
// shares (PutFile new-generation and replace-latest, DeleteVersion) and
// stores and orphans shares only B owns, on a Db small enough to flush and
// compact throughout. A's references never change, so every answer must
// be "duplicate", every share byte-exact, and no request denied.
TEST_F(DedupAccelE2eTest, OwnerReadsRaceAnotherUsersReferenceRewrites) {
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
  DedupAccelStats stats = server.dedup_accel()->stats();
  EXPECT_GT(stats.bloom_maybe, 0u);
}

}  // namespace
}  // namespace cdstore
