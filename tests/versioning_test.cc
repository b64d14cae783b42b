// End-to-end tests of the versioned backup namespace: generation-aware
// uploads, ListVersions with exact per-generation logical/unique bytes,
// generation-selected restore, retention-driven pruning with GC
// reclamation, repair of a pruned-down namespace, and dedup exactness
// under concurrent sessions (the TSAN-sensitive part).
#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/trace/synthetic.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

constexpr uint64_t kWeekMs = 7ull * 24 * 3600 * 1000;

class VersioningTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;

  void SetUp() override {
    for (int i = 0; i < kN; ++i) {
      backends_.push_back(std::make_unique<MemBackend>());
      ServerOptions so;
      so.index_dir = dir_.Sub("server" + std::to_string(i));
      so.container_capacity = 64 * 1024;  // small containers: more GC action
      auto server = CdstoreServer::Create(backends_.back().get(), so);
      ASSERT_TRUE(server.ok());
      servers_.push_back(std::move(server.value()));
      transports_.push_back(std::make_unique<InProcTransport>(servers_.back().get()));
    }
  }

  std::vector<Transport*> TransportPtrs() {
    std::vector<Transport*> out;
    for (auto& t : transports_) {
      out.push_back(t.get());
    }
    return out;
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

  static UploadFileOptions NewGen(uint64_t week) {
    UploadFileOptions o;
    o.mode = PutFileMode::kNewGeneration;
    o.timestamp_ms = week * kWeekMs;
    return o;
  }

  uint64_t TotalBackendBytes() {
    uint64_t total = 0;
    for (auto& b : backends_) {
      total += b->total_bytes();
    }
    return total;
  }

  TempDir dir_;
  std::vector<std::unique_ptr<MemBackend>> backends_;
  std::vector<std::unique_ptr<CdstoreServer>> servers_;
  std::vector<std::unique_ptr<InProcTransport>> transports_;
};

// A weekly series: each week's file shares most content with its
// predecessor (FSL-shaped churn).
std::vector<Bytes> WeeklySeries(int weeks, double scale = 1.0) {
  SyntheticDatasetOptions opts = SyntheticDataset::GenerationSeriesDefaults(scale);
  opts.num_weeks = weeks;
  opts.user_bytes = static_cast<size_t>(192 * 1024 * scale);
  opts.segment_bytes = 16 * 1024;
  // At 12 segments the paper-shaped 4% weekly churn rounds to zero
  // modified segments; crank the rates so every test week actually
  // rewrites (3 segments) and appends (1 segment).
  opts.weekly_mod_rate = 0.25;
  opts.weekly_growth_rate = 0.1;
  SyntheticDataset data(opts);
  std::vector<Bytes> out;
  out.reserve(weeks);
  for (int w = 0; w < weeks; ++w) {
    out.push_back(data.FileFor(0, w));
  }
  return out;
}

TEST_F(VersioningTest, GenerationsAccumulateAndRestoreByteIdentically) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(4);
  for (size_t w = 0; w < weekly.size(); ++w) {
    UploadStats stats;
    ASSERT_TRUE(client.Upload("/home", weekly[w], &stats, NewGen(w + 1)).ok());
    EXPECT_EQ(stats.generation_id, w + 1);
  }

  auto versions = client.ListVersions("/home");
  ASSERT_TRUE(versions.ok()) << versions.status();
  ASSERT_EQ(versions.value().size(), weekly.size());
  for (size_t w = 0; w < weekly.size(); ++w) {
    const VersionInfo& v = versions.value()[w];
    EXPECT_EQ(v.generation_id, w + 1);
    EXPECT_EQ(v.logical_bytes, weekly[w].size());
    EXPECT_EQ(v.timestamp_ms, (w + 1) * kWeekMs);
    EXPECT_GT(v.num_secrets, 0u);
    EXPECT_GT(v.unique_bytes, 0u);  // every week modifies something
  }
  // Week 2+ dedups the unmodified segments against week 1 (the §5.2
  // effect; the test series rewrites 3 of 12 segments + appends 1, so the
  // incremental unique bytes stay well under half the full backup's).
  EXPECT_LT(versions.value()[1].unique_bytes, versions.value()[0].unique_bytes / 2);

  // Every generation restores byte-identically; 0 selects the latest.
  for (size_t w = 0; w < weekly.size(); ++w) {
    auto restored = client.Download("/home", nullptr, w + 1);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(restored.value(), weekly[w]) << "generation " << (w + 1);
  }
  EXPECT_EQ(client.Download("/home").value(), weekly.back());

  // One path, many generations: file_count counts paths.
  Bytes frame = Dispatch(*servers_[0], Encode(StatsRequest{}));
  StatsReply stats;
  ASSERT_TRUE(Decode(frame, &stats).ok());
  EXPECT_EQ(stats.file_count, 1u);
}

TEST_F(VersioningTest, ReplaceLatestKeepsSingleGeneration) {
  // The default (pre-versioning) overwrite semantics: re-upload replaces.
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes v1 = Rng(11).RandomBytes(60000);
  Bytes v2 = Rng(12).RandomBytes(60000);
  ASSERT_TRUE(client.Upload("/flat", v1).ok());
  uint64_t first_unique = client.ListVersions("/flat").value()[0].unique_bytes;
  EXPECT_GT(first_unique, 0u);
  // An identical-content overwrite carries the unique-bytes attribution
  // forward (nothing was dropped, nothing newly stored).
  ASSERT_TRUE(client.Upload("/flat", v1).ok());
  EXPECT_EQ(client.ListVersions("/flat").value()[0].unique_bytes, first_unique);
  ASSERT_TRUE(client.Upload("/flat", v2).ok());
  auto versions = client.ListVersions("/flat");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions.value().size(), 1u);
  // Replacement reuses the id in place (keeps per-cloud id allocation in
  // lockstep across partial-failure retries), and fresh content's
  // attribution replaces the dropped generation's.
  EXPECT_EQ(versions.value()[0].generation_id, 1u);
  EXPECT_GT(versions.value()[0].unique_bytes, 0u);
  EXPECT_EQ(client.Download("/flat").value(), v2);
  // The replaced generation's shares are orphaned and reclaimable.
  uint64_t reclaimed = 0;
  for (int i = 0; i < kN; ++i) {
    auto gc = servers_[i]->CollectGarbage();
    ASSERT_TRUE(gc.ok());
    reclaimed += gc.value().bytes_reclaimed;
  }
  EXPECT_GT(reclaimed, v1.size());
  EXPECT_EQ(client.Download("/flat").value(), v2);
}

TEST_F(VersioningTest, DeleteVersionKeepsSharedShares) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(2);
  ASSERT_TRUE(client.Upload("/home", weekly[0], nullptr, NewGen(1)).ok());
  ASSERT_TRUE(client.Upload("/home", weekly[1], nullptr, NewGen(2)).ok());

  ASSERT_TRUE(client.DeleteVersion("/home", 1).ok());
  auto versions = client.ListVersions("/home");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions.value().size(), 1u);
  EXPECT_EQ(versions.value()[0].generation_id, 2u);

  // Deleting the pruned generation's references must not take shares the
  // survivor still names: gen 2 restores even after GC migrates/reclaims.
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(servers_[i]->CollectGarbage().ok());
  }
  EXPECT_EQ(client.Download("/home").value(), weekly[1]);
  // The deleted generation is gone.
  EXPECT_EQ(client.Download("/home", nullptr, 1).status().code(), StatusCode::kNotFound);
}

TEST_F(VersioningTest, RetentionPruneReclaimsBackendSpace) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(5);
  for (size_t w = 0; w < weekly.size(); ++w) {
    ASSERT_TRUE(client.Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
  }
  // Flush so every uploaded share is on the backend before measuring.
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(servers_[i]->Flush().ok());
  }
  uint64_t before = TotalBackendBytes();

  RetentionPolicy policy;
  policy.keep_last_n = 2;
  auto pruned = client.ApplyRetention("/home", policy);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(pruned.value().generations_deleted, 3u);
  EXPECT_EQ(pruned.value().deleted_generations, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_GT(pruned.value().shares_orphaned, 0u);

  auto versions = client.ListVersions("/home");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions.value().size(), 2u);
  EXPECT_EQ(versions.value()[0].generation_id, 4u);
  EXPECT_EQ(versions.value()[1].generation_id, 5u);

  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(servers_[i]->CollectGarbage().ok());
  }
  uint64_t after = TotalBackendBytes();
  EXPECT_LT(after, before) << "prune + GC must reclaim backend bytes";

  // Survivors restore byte-identically; pruned generations are NotFound.
  EXPECT_EQ(client.Download("/home", nullptr, 4).value(), weekly[3]);
  EXPECT_EQ(client.Download("/home", nullptr, 5).value(), weekly[4]);
  EXPECT_EQ(client.Download("/home", nullptr, 2).status().code(), StatusCode::kNotFound);
}

TEST_F(VersioningTest, RetentionWindowRule) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(4);
  for (size_t w = 0; w < weekly.size(); ++w) {
    ASSERT_TRUE(client.Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
  }
  // Keep anything backed up within the last ~1.5 weeks of "now" (= end of
  // week 4): generations 3 and 4 survive on the window rule alone.
  RetentionPolicy policy;
  policy.keep_within_ms = kWeekMs + kWeekMs / 2;
  policy.now_ms = 4 * kWeekMs;
  auto pruned = client.ApplyRetention("/home", policy);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(pruned.value().deleted_generations, (std::vector<uint64_t>{1, 2}));
  auto versions = client.ListVersions("/home");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions.value().size(), 2u);
  EXPECT_EQ(versions.value()[0].generation_id, 3u);
}

TEST_F(VersioningTest, RetentionHugeWindowKeepsEverything) {
  // Overflow regression: a UINT64_MAX window ("keep everything") must not
  // wrap the age test into prune-everything.
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(3);
  for (size_t w = 0; w < weekly.size(); ++w) {
    ASSERT_TRUE(client.Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
  }
  RetentionPolicy policy;
  policy.keep_within_ms = std::numeric_limits<uint64_t>::max();
  policy.now_ms = 10 * kWeekMs;
  auto pruned = client.ApplyRetention("/home", policy);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(pruned.value().generations_deleted, 0u);
  EXPECT_EQ(client.ListVersions("/home").value().size(), 3u);
}

TEST_F(VersioningTest, DownloadSurvivesLatestSkewAcrossClouds) {
  // An interrupted maintenance op can leave clouds at different LATEST
  // generations while all still hold the overlap: a restore must re-probe
  // mismatched clouds with the resolved generation instead of discarding
  // them (k healthy copies exist).
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(2);
  ASSERT_TRUE(client.Upload("/home", weekly[0], nullptr, NewGen(1)).ok());
  ASSERT_TRUE(client.Upload("/home", weekly[1], nullptr, NewGen(2)).ok());

  // Drop generation 2 on clouds 0 and 3 only (the partial op: the other
  // clouds are unreachable while it runs): latest is now 1 on clouds
  // {0,3} and 2 on clouds {1,2}.
  for (int c : {0, 3}) {
    for (int i = 0; i < kN; ++i) {
      transports_[i]->set_connected(i == c);
    }
    // Non-ok overall (three clouds unreachable), but cloud c's delete
    // landed.
    (void)client.DeleteVersion("/home", 2);
  }
  for (int i = 0; i < kN; ++i) {
    transports_[i]->set_connected(true);
  }
  // The skew is real: cloud 0 reports one generation left.
  ASSERT_EQ(client.ListVersions("/home").value().size(), 1u);

  // Latest restore: cloud 0 answers first and pins generation 1; clouds 1
  // and 2 report latest 2 but still hold 1 and must be re-recruited.
  auto restored = client.Download("/home");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), weekly[0]);
}

TEST_F(VersioningTest, RepairRestoresAnOlderGenerationUnderItsId) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(3);
  for (size_t w = 0; w < weekly.size(); ++w) {
    ASSERT_TRUE(client.Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
  }

  // Cloud 2 loses its state entirely (server down first, then the store).
  servers_[2].reset();
  backends_[2] = std::make_unique<MemBackend>();
  ServerOptions so;
  so.index_dir = dir_.Sub("server2-fresh");
  so.container_capacity = 64 * 1024;
  auto fresh = CdstoreServer::Create(backends_[2].get(), so);
  ASSERT_TRUE(fresh.ok());
  servers_[2] = std::move(fresh.value());
  transports_[2] = std::make_unique<InProcTransport>(servers_[2].get());

  CdstoreClient repairer(TransportPtrs(), 1, SmallClientOptions());
  ASSERT_TRUE(repairer.RepairFile("/home", 2, 2).ok());
  ASSERT_TRUE(repairer.RepairFile("/home", 2).ok());  // latest (gen 3)

  // The repaired copies landed under their original ids: with cloud 0
  // down, restores that must recruit cloud 2 still resolve generations.
  transports_[0]->set_connected(false);
  CdstoreClient degraded(TransportPtrs(), 1, SmallClientOptions());
  EXPECT_EQ(degraded.Download("/home", nullptr, 2).value(), weekly[1]);
  EXPECT_EQ(degraded.Download("/home").value(), weekly[2]);
  transports_[0]->set_connected(true);
}

TEST_F(VersioningTest, DeleteMissingFileIsCleanNotFound) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  // Client surface.
  Status st = client.DeleteFile("/never-uploaded");
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st;
  // Server reply, via the typed dispatch path a remote client exercises.
  auto path_keys_frame = transports_[0]->Call(Encode([&] {
    DeleteFileRequest req;
    req.user = 1;
    req.path_key = BytesOf("no-such-path-share");
    return req;
  }()));
  ASSERT_TRUE(path_keys_frame.ok());
  Status wire = DecodeIfError(path_keys_frame.value());
  EXPECT_EQ(wire.code(), StatusCode::kNotFound);
  EXPECT_EQ(wire.message(), "file not found");
  // DeleteVersion and ListVersions on missing paths are NotFound too.
  EXPECT_EQ(client.DeleteVersion("/never-uploaded", 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(client.ListVersions("/never-uploaded").status().code(), StatusCode::kNotFound);
  // And a missing *generation* of an existing path.
  ASSERT_TRUE(client.Upload("/exists", Rng(9).RandomBytes(20000)).ok());
  EXPECT_EQ(client.DeleteVersion("/exists", 99).code(), StatusCode::kNotFound);
}

TEST_F(VersioningTest, DeleteFileDropsEveryGeneration) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  std::vector<Bytes> weekly = WeeklySeries(3);
  for (size_t w = 0; w < weekly.size(); ++w) {
    ASSERT_TRUE(client.Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
  }
  ASSERT_TRUE(client.DeleteFile("/home").ok());
  EXPECT_EQ(client.ListVersions("/home").status().code(), StatusCode::kNotFound);
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(servers_[i]->CollectGarbage().ok());
  }
  // Every generation's shares were dereferenced: nothing unique remains.
  EXPECT_EQ(servers_[0]->unique_share_count(), 0u);
}

TEST_F(VersioningTest, WireRoundTripsForVersioningMessages) {
  PutFileRequest put;
  put.user = 3;
  put.path_key = BytesOf("pk");
  put.file_size = 999;
  put.mode = PutFileMode::kPutGeneration;
  put.generation_id = 17;
  put.timestamp_ms = 123456789;
  PutFileRequest put_back;
  ASSERT_TRUE(Decode(Encode(put), &put_back).ok());
  EXPECT_EQ(put_back.mode, PutFileMode::kPutGeneration);
  EXPECT_EQ(put_back.generation_id, 17u);
  EXPECT_EQ(put_back.timestamp_ms, 123456789u);

  ListVersionsReply lv;
  lv.versions.push_back({1, 100, 50, 7, 1000});
  lv.versions.push_back({2, 200, 10, 9, 2000});
  ListVersionsReply lv_back;
  ASSERT_TRUE(Decode(Encode(lv), &lv_back).ok());
  ASSERT_EQ(lv_back.versions.size(), 2u);
  EXPECT_EQ(lv_back.versions[1].generation_id, 2u);
  EXPECT_EQ(lv_back.versions[1].unique_bytes, 10u);
  EXPECT_EQ(lv_back.versions[1].timestamp_ms, 2000u);

  ApplyRetentionRequest ar;
  ar.user = 5;
  ar.path_key = BytesOf("p");
  ar.policy = {3, 1000, 5000};
  ApplyRetentionRequest ar_back;
  ASSERT_TRUE(Decode(Encode(ar), &ar_back).ok());
  EXPECT_EQ(ar_back.policy.keep_last_n, 3u);
  EXPECT_EQ(ar_back.policy.keep_within_ms, 1000u);
  EXPECT_EQ(ar_back.policy.now_ms, 5000u);

  ApplyRetentionReply arr;
  arr.generations_deleted = 2;
  arr.shares_orphaned = 40;
  arr.logical_bytes_deleted = 4096;
  arr.deleted_generations = {1, 2};
  ApplyRetentionReply arr_back;
  ASSERT_TRUE(Decode(Encode(arr), &arr_back).ok());
  EXPECT_EQ(arr_back.deleted_generations, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(arr_back.logical_bytes_deleted, 4096u);

  DeleteVersionRequest dv;
  dv.user = 1;
  dv.path_key = BytesOf("x");
  dv.generation_id = 4;
  DeleteVersionRequest dv_back;
  ASSERT_TRUE(Decode(Encode(dv), &dv_back).ok());
  EXPECT_EQ(dv_back.generation_id, 4u);
}

// The acceptance-criteria invariant: per-generation unique bytes are EXACT
// under concurrent sessions — across every user and generation they sum to
// precisely the server's physical share bytes, because each share's first
// reference is attributed exactly once under the striped locks.
TEST_F(VersioningTest, ConcurrentSessionsKeepUniqueBytesExact) {
  constexpr int kClients = 4;
  constexpr int kWeeks = 3;
  // Users share a base pool (FslDefaults' cross-user redundancy), so
  // first-reference attribution actually races across sessions.
  SyntheticDatasetOptions dopts = SyntheticDataset::FslDefaults(1.0);
  dopts.num_users = kClients;
  dopts.num_weeks = kWeeks;
  dopts.user_bytes = 96 * 1024;
  dopts.segment_bytes = 8 * 1024;
  dopts.shared_base_fraction = 0.5;
  SyntheticDataset data(dopts);

  std::vector<std::thread> threads;
  std::vector<Status> results(kClients, Status::Ok());
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      CdstoreClient client(TransportPtrs(), /*user=*/c + 1, SmallClientOptions());
      auto session = client.OpenBackupSession();
      if (!session.ok()) {
        results[c] = session.status();
        return;
      }
      for (int w = 0; w < kWeeks; ++w) {
        Status st = session.value()->Upload("/u" + std::to_string(c), data.FileFor(c, w),
                                            nullptr, NewGen(w + 1));
        if (!st.ok()) {
          results[c] = st;
          return;
        }
      }
      results[c] = session.value()->Close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(results[c].ok()) << "client " << c << ": " << results[c];
  }

  // Exactness: the sum of unique_bytes over all users and generations
  // equals the physical share bytes the server accounted — every stored
  // share's first reference was attributed exactly once, despite the
  // races. (ListVersions answers from cloud 0; the other clouds run the
  // identical accounting on their own shares.)
  uint64_t unique_sum = 0;
  for (int c = 0; c < kClients; ++c) {
    CdstoreClient client(TransportPtrs(), c + 1, SmallClientOptions());
    auto versions = client.ListVersions("/u" + std::to_string(c));
    ASSERT_TRUE(versions.ok()) << versions.status();
    EXPECT_EQ(versions.value().size(), static_cast<size_t>(kWeeks));
    for (const VersionInfo& v : versions.value()) {
      unique_sum += v.unique_bytes;
    }
  }
  EXPECT_EQ(unique_sum, servers_[0]->physical_share_bytes())
      << "unique-bytes attribution must be exact under concurrency";

  // And every user's latest restores byte-identically after the race.
  for (int c = 0; c < kClients; ++c) {
    CdstoreClient client(TransportPtrs(), c + 1, SmallClientOptions());
    EXPECT_EQ(client.Download("/u" + std::to_string(c)).value(),
              data.FileFor(c, kWeeks - 1));
  }
}

}  // namespace
}  // namespace cdstore
