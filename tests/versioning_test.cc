// End-to-end tests of the versioned backup namespace: generation-aware
// uploads, ListVersions with exact per-generation logical/unique bytes,
// generation-selected restore, retention-driven pruning with GC
// reclamation, repair of a pruned-down namespace, and dedup exactness
// under concurrent sessions (the TSAN-sensitive part).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/storage/container.h"
#include "src/trace/synthetic.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"
#include "tests/file_size_limit.h"

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

// ------------------------------------------- one index commit per deletion --

// A MemBackend whose GETs of one object fail while `fail_get` names it:
// with an I/O error, or, when `lost` is set, as absent (a cloud that lost
// the object). Set both only while no RPC is in flight.
class FlakyGetBackend : public MemBackend {
 public:
  Result<Bytes> Get(const std::string& name) override {
    if (name == fail_get) {
      return lost ? Status::NotFound("object absent: " + name)
                  : Status::IOError("injected GET failure: " + name);
    }
    return MemBackend::Get(name);
  }

  std::string fail_get;
  bool lost = false;
};

// Deleting RPCs stage every index change and commit it with one Db write,
// so a failure anywhere before that write leaves the index as it was.
class AtomicDeleteTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;

  struct Deployment {
    TempDir dir;
    std::vector<std::unique_ptr<FlakyGetBackend>> backends;
    std::vector<std::unique_ptr<CdstoreServer>> servers;
    std::vector<std::unique_ptr<InProcTransport>> transports;

    Deployment() {
      for (int i = 0; i < kN; ++i) {
        backends.push_back(std::make_unique<FlakyGetBackend>());
      }
      Reopen();
    }

    std::string IndexDir(int i) const { return dir.Sub("server" + std::to_string(i)); }

    // Drops the servers (sealing what they hold) and restarts them on the
    // same backends and index dirs, with cold container caches.
    void Reopen() {
      transports.clear();
      servers.clear();
      for (int i = 0; i < kN; ++i) {
        ServerOptions so;
        so.index_dir = IndexDir(i);
        so.container_capacity = 64 * 1024;
        auto server = CdstoreServer::Create(backends[i].get(), so);
        ASSERT_TRUE(server.ok()) << server.status();
        servers.push_back(std::move(server.value()));
        transports.push_back(std::make_unique<InProcTransport>(servers.back().get()));
      }
    }

    std::unique_ptr<CdstoreClient> Client() {
      std::vector<Transport*> ts;
      for (auto& t : transports) {
        ts.push_back(t.get());
      }
      ClientOptions o;
      o.n = kN;
      o.k = 3;
      o.rabin.min_size = 512;
      o.rabin.avg_size = 2048;
      o.rabin.max_size = 8192;
      return std::make_unique<CdstoreClient>(ts, /*user=*/1, o);
    }

    StatsReply Stats(int i) {
      StatsReply reply;
      EXPECT_TRUE(Decode(Dispatch(*servers[i], Encode(StatsRequest{})), &reply).ok());
      return reply;
    }

    // Every key and value of server i's index, via a snapshot object.
    Bytes IndexScan(int i) {
      EXPECT_TRUE(servers[i]->BackupIndexSnapshot("index-scan").ok());
      auto scan = backends[i]->Get("index-scan");
      EXPECT_TRUE(scan.ok());
      return scan.ok() ? scan.value() : Bytes{};
    }
  };

  // What a client and the servers report about the index at one point.
  struct Observed {
    std::vector<VersionInfo> versions;
    std::vector<StatsReply> stats;
    std::vector<Bytes> scans;
  };

  static Observed Observe(Deployment& d, bool with_scan) {
    Observed o;
    auto versions = d.Client()->ListVersions("/home");
    EXPECT_TRUE(versions.ok()) << versions.status();
    if (versions.ok()) {
      o.versions = versions.value();
    }
    for (int i = 0; i < kN; ++i) {
      o.stats.push_back(d.Stats(i));
      if (with_scan) {
        o.scans.push_back(d.IndexScan(i));
      }
    }
    return o;
  }

  static void ExpectSame(const Observed& got, const Observed& want) {
    ASSERT_EQ(got.versions.size(), want.versions.size());
    for (size_t v = 0; v < got.versions.size(); ++v) {
      EXPECT_EQ(got.versions[v].generation_id, want.versions[v].generation_id);
      EXPECT_EQ(got.versions[v].logical_bytes, want.versions[v].logical_bytes);
      EXPECT_EQ(got.versions[v].unique_bytes, want.versions[v].unique_bytes);
      EXPECT_EQ(got.versions[v].num_secrets, want.versions[v].num_secrets);
      EXPECT_EQ(got.versions[v].timestamp_ms, want.versions[v].timestamp_ms);
    }
    ASSERT_EQ(got.stats.size(), want.stats.size());
    for (size_t i = 0; i < got.stats.size(); ++i) {
      EXPECT_EQ(got.stats[i].unique_shares, want.stats[i].unique_shares) << "cloud " << i;
      EXPECT_EQ(got.stats[i].stored_bytes, want.stats[i].stored_bytes) << "cloud " << i;
      EXPECT_EQ(got.stats[i].file_count, want.stats[i].file_count) << "cloud " << i;
      EXPECT_EQ(got.stats[i].generation_count, want.stats[i].generation_count) << "cloud " << i;
      EXPECT_EQ(got.stats[i].container_count, want.stats[i].container_count) << "cloud " << i;
    }
    EXPECT_TRUE(got.scans == want.scans) << "index contents differ";
  }

  static UploadFileOptions NewGen(uint64_t week) {
    UploadFileOptions o;
    o.mode = PutFileMode::kNewGeneration;
    o.timestamp_ms = week * kWeekMs;
    return o;
  }

  // Generations 1-3 of /home; DeleteVersion(1), whose index write fails on
  // every cloud when `fail_write` is set; restart; the retry (when the
  // first attempt failed); restart; GC. Returns what is left.
  static void DeleteVersionScenario(Deployment& d, const std::vector<Bytes>& weekly,
                                    bool fail_write, Observed* out) {
    for (size_t w = 0; w < weekly.size(); ++w) {
      ASSERT_TRUE(d.Client()->Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
    }
    auto client = d.Client();
    if (fail_write) {
      uint64_t wal_bytes = UINT64_MAX;
      for (int i = 0; i < kN; ++i) {
        auto size = FileSize(d.IndexDir(i) + "/wal.log");
        ASSERT_TRUE(size.ok());
        wal_bytes = std::min(wal_bytes, size.value());
      }
      Status st;
      {
        // Room for about ten single-entry records: a write per recipe
        // entry gets partway, one batch for the RPC does not.
        FileSizeLimit limit(wal_bytes + 1024);
        st = client->DeleteVersion("/home", 1);
      }
      ASSERT_FALSE(st.ok());
    } else {
      ASSERT_TRUE(client->DeleteVersion("/home", 1).ok());
    }
    client.reset();
    d.Reopen();
    if (fail_write) {
      ASSERT_TRUE(d.Client()->DeleteVersion("/home", 1).ok());
    }
    d.Reopen();
    for (int i = 0; i < kN; ++i) {
      auto gc = d.servers[i]->CollectGarbage();
      ASSERT_TRUE(gc.ok()) << gc.status();
    }
    client = d.Client();
    EXPECT_EQ(client->Download("/home", nullptr, 1).status().code(), StatusCode::kNotFound);
    for (uint64_t g = 2; g <= weekly.size(); ++g) {
      auto restored = client->Download("/home", nullptr, g);
      ASSERT_TRUE(restored.ok()) << "generation " << g << ": " << restored.status();
      EXPECT_EQ(restored.value(), weekly[g - 1]) << "generation " << g;
    }
    *out = Observe(d, /*with_scan=*/true);
  }
};

TEST_F(AtomicDeleteTest, FailedIndexWriteLeavesDeleteVersionRetryable) {
  std::vector<Bytes> weekly = WeeklySeries(3);
  Observed twin;
  {
    Deployment d;
    DeleteVersionScenario(d, weekly, /*fail_write=*/false, &twin);
  }
  Deployment d;
  Observed faulted;
  DeleteVersionScenario(d, weekly, /*fail_write=*/true, &faulted);
  ASSERT_EQ(faulted.versions.size(), 2u);
  ExpectSame(faulted, twin);
}

TEST_F(AtomicDeleteTest, DeleteFileWithAnUnreadableRecipeDeletesNothing) {
  Deployment d;
  std::vector<Bytes> weekly = WeeklySeries(3);
  for (size_t w = 0; w < weekly.size(); ++w) {
    ASSERT_TRUE(d.Client()->Upload("/home", weekly[w], nullptr, NewGen(w + 1)).ok());
    // Seal each generation's recipe into its own container (ids 1, 2, 3).
    for (auto& server : d.servers) {
      ASSERT_TRUE(server->Flush().ok());
    }
  }
  d.Reopen();  // cold caches: a recipe fetch reads the backend
  Observed before = Observe(d, /*with_scan=*/false);
  ASSERT_EQ(before.versions.size(), 3u);
  const std::string third_recipe = ContainerObjectName("r", 3);
  for (auto& backend : d.backends) {
    ASSERT_TRUE(backend->Exists(third_recipe));
    backend->fail_get = third_recipe;
  }
  EXPECT_FALSE(d.Client()->DeleteFile("/home").ok());
  for (auto& backend : d.backends) {
    backend->fail_get.clear();
  }
  ExpectSame(Observe(d, /*with_scan=*/false), before);
  auto client = d.Client();
  for (uint64_t g = 1; g <= weekly.size(); ++g) {
    auto restored = client->Download("/home", nullptr, g);
    ASSERT_TRUE(restored.ok()) << "generation " << g << ": " << restored.status();
    EXPECT_EQ(restored.value(), weekly[g - 1]);
  }
}

TEST_F(AtomicDeleteTest, SweepWithALostRecipeDropsNoReferences) {
  Deployment d;
  // Two paths on one sweep page with unrelated content: reversed bytes
  // share no chunk with the forward series.
  std::vector<Bytes> a = WeeklySeries(3);
  std::vector<Bytes> b = a;
  for (Bytes& gen : b) {
    std::reverse(gen.begin(), gen.end());
  }
  for (const auto& [path, series] : {std::pair{"/a", &a}, std::pair{"/b", &b}}) {
    for (size_t w = 0; w < series->size(); ++w) {
      ASSERT_TRUE(d.Client()->Upload(path, (*series)[w], nullptr, NewGen(w + 1)).ok());
      // One recipe container per generation: /a's are ids 1-3, /b's 4-6.
      for (auto& server : d.servers) {
        ASSERT_TRUE(server->Flush().ok());
      }
    }
  }
  d.Reopen();  // cold caches: a recipe fetch reads the backend
  // Every cloud has lost the recipe of /a's generation 2, which the sweep
  // reads after generation 1's. /b's prune alone would commit.
  const std::string lost_recipe = ContainerObjectName("r", 2);
  for (auto& backend : d.backends) {
    ASSERT_TRUE(backend->Exists(lost_recipe));
    backend->fail_get = lost_recipe;
    backend->lost = true;
  }
  RetentionPolicy keep_one;
  keep_one.keep_last_n = 1;
  auto sweep = d.Client()->ApplyRetentionNamespace(keep_one);
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kNotFound) << sweep.status();
  // The lost object is named, not reported as a missing generation.
  Status del = d.Client()->DeleteVersion("/a", 2);
  EXPECT_NE(del.message().find("object absent"), std::string::npos) << del;
  for (auto& backend : d.backends) {
    backend->fail_get.clear();
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(d.Stats(i).generation_count, 6u) << "cloud " << i;
    auto gc = d.servers[i]->CollectGarbage();
    ASSERT_TRUE(gc.ok()) << gc.status();
  }
  d.Reopen();
  auto client = d.Client();
  for (const auto& [path, series] : {std::pair{"/a", &a}, std::pair{"/b", &b}}) {
    for (uint64_t g = 1; g <= series->size(); ++g) {
      auto restored = client->Download(path, nullptr, g);
      ASSERT_TRUE(restored.ok()) << path << " generation " << g << ": " << restored.status();
      EXPECT_EQ(restored.value(), (*series)[g - 1]) << path << " generation " << g;
    }
  }
  // With the object back, the sweep prunes both paths to their newest.
  ASSERT_TRUE(client->ApplyRetentionNamespace(keep_one).ok());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(d.Stats(i).generation_count, 2u) << "cloud " << i;
  }
  for (const auto& [path, series] : {std::pair{"/a", &a}, std::pair{"/b", &b}}) {
    auto restored = client->Download(path, nullptr, 3);
    ASSERT_TRUE(restored.ok()) << path << ": " << restored.status();
    EXPECT_EQ(restored.value(), series->back()) << path;
  }
}

}  // namespace
}  // namespace cdstore
