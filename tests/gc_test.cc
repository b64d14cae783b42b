// Tests for the §4.7 future-work features realized in this reproduction:
// garbage collection of orphaned shares and index snapshot backup/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/kvstore/db.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// A MemBackend whose share-container PUTs fail while the flag is set: a
// cloud that stops accepting new containers.
class SealFailBackend : public MemBackend {
 public:
  Status Put(const std::string& name, ConstByteSpan data) override {
    if (fail_container_puts && !name.empty() && name[0] == 'c') {
      return Status::IOError("injected container PUT failure: " + name);
    }
    return MemBackend::Put(name, data);
  }

  std::atomic<bool> fail_container_puts{false};
};

class GcTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;

  void SetUp() override {
    for (int i = 0; i < kN; ++i) {
      backends_.push_back(std::make_unique<SealFailBackend>());
      ServerOptions so;
      so.index_dir = dir_.Sub("server" + std::to_string(i));
      so.container_capacity = 64 * 1024;  // small containers: more GC action
      auto server = CdstoreServer::Create(backends_.back().get(), so);
      ASSERT_TRUE(server.ok());
      servers_.push_back(std::move(server.value()));
      transports_.push_back(std::make_unique<InProcTransport>(servers_.back()->AsHandler()));
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

  // Closes server i, compacts its index into one SSTable and flips a byte
  // in the table's last data block: share-index records ('S' keys sort
  // last), clear of the server meta record.
  void CorruptShareIndex(int i) {
    servers_[i].reset();
    std::string index_dir = dir_.Sub("server" + std::to_string(i));
    {
      auto db = Db::Open(index_dir, DbOptions());
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE(db.value()->Flush().ok());
      ASSERT_TRUE(db.value()->CompactAll().ok());
      ASSERT_EQ(db.value()->sstable_count(), 1);
    }
    auto names = ListDir(index_dir);
    ASSERT_TRUE(names.ok());
    for (const std::string& name : names.value()) {
      if (name.size() < 4 || name.compare(name.size() - 4, 4, ".sst") != 0) {
        continue;
      }
      std::string path = index_dir + "/" + name;
      auto data = ReadFileBytes(path);
      ASSERT_TRUE(data.ok());
      Bytes& sst = data.value();
      // The footer's third field is the bloom block's offset; the last data
      // block's 4-byte checksum ends right before it.
      BufferReader footer(ConstByteSpan(sst).subspan(sst.size() - 48));
      uint64_t skip = 0, bloom_off = 0;
      ASSERT_TRUE(footer.GetU64(&skip).ok());
      ASSERT_TRUE(footer.GetU64(&skip).ok());
      ASSERT_TRUE(footer.GetU64(&bloom_off).ok());
      sst[bloom_off - 8] ^= 0x5a;
      ASSERT_TRUE(WriteFile(path, sst).ok());
    }
  }

  Result<std::unique_ptr<CdstoreServer>> Reopen(int i, bool dedup_accel) {
    ServerOptions so;
    so.index_dir = dir_.Sub("server" + std::to_string(i));
    so.container_capacity = 64 * 1024;
    so.dedup_accel = dedup_accel;
    return CdstoreServer::Create(backends_[i].get(), so);
  }

  TempDir dir_;
  std::vector<std::unique_ptr<SealFailBackend>> backends_;
  std::vector<std::unique_ptr<CdstoreServer>> servers_;
  std::vector<std::unique_ptr<InProcTransport>> transports_;
};

TEST_F(GcTest, GcReclaimsDeletedFileSpace) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes keep = Rng(1).RandomBytes(120000);
  Bytes doomed = Rng(2).RandomBytes(120000);
  ASSERT_TRUE(client.Upload("/keep", keep).ok());
  ASSERT_TRUE(client.Upload("/doomed", doomed).ok());
  uint64_t before = backends_[0]->total_bytes();
  ASSERT_TRUE(client.DeleteFile("/doomed").ok());

  // Deletion alone reclaims nothing (the paper's prototype behavior).
  EXPECT_GE(backends_[0]->total_bytes(), before - 1024);

  uint64_t reclaimed_total = 0;
  for (int i = 0; i < kN; ++i) {
    auto stats = servers_[i]->CollectGarbage();
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_GT(stats.value().containers_scanned, 0u);
    reclaimed_total += stats.value().bytes_reclaimed;
  }
  EXPECT_GT(reclaimed_total, doomed.size()) << "GC must reclaim the deleted file's shares";
  EXPECT_LT(backends_[0]->total_bytes(), before);

  // The surviving file still restores after its shares were migrated.
  auto restored = client.Download("/keep");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), keep);
}

TEST_F(GcTest, GcIsNoopWhenEverythingLive) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(3).RandomBytes(100000);
  ASSERT_TRUE(client.Upload("/live", data).ok());
  auto stats = servers_[0]->CollectGarbage();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().bytes_reclaimed, 0u);
  EXPECT_EQ(stats.value().live_shares_moved, 0u);
  EXPECT_EQ(client.Download("/live").value(), data);
}

TEST_F(GcTest, GcViaRpc) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(4).RandomBytes(80000);
  ASSERT_TRUE(client.Upload("/f", data).ok());
  ASSERT_TRUE(client.DeleteFile("/f").ok());
  auto frame = transports_[0]->Call(Encode(GcRequest{}));
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(DecodeIfError(frame.value()).ok());
  GcReply reply;
  ASSERT_TRUE(Decode(frame.value(), &reply).ok());
  EXPECT_GT(reply.bytes_reclaimed, 0u);
}

TEST_F(GcTest, GcPreservesSharedShares) {
  // Two files share most content; deleting one must not lose the other's
  // data through GC.
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes common = Rng(5).RandomBytes(100000);
  Bytes file2 = common;
  Bytes extra = Rng(6).RandomBytes(30000);
  file2.insert(file2.end(), extra.begin(), extra.end());
  ASSERT_TRUE(client.Upload("/a", common).ok());
  ASSERT_TRUE(client.Upload("/b", file2).ok());
  ASSERT_TRUE(client.DeleteFile("/a").ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(servers_[i]->CollectGarbage().ok());
  }
  auto restored = client.Download("/b");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), file2);
}

TEST_F(GcTest, RepeatedDeleteGcCycles) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  for (int round = 0; round < 3; ++round) {
    Bytes data = Rng(100 + round).RandomBytes(60000);
    std::string path = "/cycle" + std::to_string(round);
    ASSERT_TRUE(client.Upload(path, data).ok());
    EXPECT_EQ(client.Download(path).value(), data);
    ASSERT_TRUE(client.DeleteFile(path).ok());
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(servers_[i]->CollectGarbage().ok());
    }
  }
  // After all cycles everything is reclaimed; a few container stubs and
  // recipe containers may remain but share bytes are gone.
  Bytes frame = Dispatch(*servers_[0], Encode(StatsRequest{}));
  StatsReply stats;
  ASSERT_TRUE(Decode(frame, &stats).ok());
  EXPECT_EQ(stats.unique_shares, 0u);
}

TEST_F(GcTest, GcAfterOverwriteRewritesOnlyDereferencedContainers) {
  // Upload a file, overwrite it as a NEW generation that keeps most of the
  // old content, prune the old generation, and assert GC touches only the
  // containers whose shares actually lost their last reference — fully
  // live containers are left in place.
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes gen1 = Rng(21).RandomBytes(180000);
  Bytes gen2 = gen1;
  // Rewrite the middle third: gen2 dedups the head and tail against gen1.
  Bytes churn = Rng(22).RandomBytes(60000);
  std::copy(churn.begin(), churn.end(), gen2.begin() + 60000);

  UploadFileOptions new_gen;
  new_gen.mode = PutFileMode::kNewGeneration;
  ASSERT_TRUE(client.Upload("/v", gen1, nullptr, new_gen).ok());
  ASSERT_TRUE(client.Upload("/v", gen2, nullptr, new_gen).ok());
  ASSERT_TRUE(client.DeleteVersion("/v", 1).ok());

  for (int i = 0; i < kN; ++i) {
    auto stats = servers_[i]->CollectGarbage();
    ASSERT_TRUE(stats.ok()) << stats.status();
    // Only the containers holding gen1's rewritten-region shares lost
    // references; the (many) containers of still-shared head/tail shares
    // must not be rewritten.
    EXPECT_GT(stats.value().containers_rewritten, 0u);
    EXPECT_LT(stats.value().containers_rewritten, stats.value().containers_scanned);
    EXPECT_GT(stats.value().bytes_reclaimed, 0u);
    // Far less than the whole file is reclaimable: most shares survived
    // into generation 2.
    EXPECT_LT(stats.value().bytes_reclaimed, gen1.size());
  }
  // The surviving generation restores byte-identically after migration.
  auto restored = client.Download("/v");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), gen2);
}

TEST_F(GcTest, FailedSealLeavesTheIndexOnTheOldContainers) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes keep = Rng(31).RandomBytes(120000);
  ASSERT_TRUE(client.Upload("/keep", keep).ok());
  ASSERT_TRUE(client.Upload("/doomed", Rng(32).RandomBytes(120000)).ok());
  ASSERT_TRUE(client.DeleteFile("/doomed").ok());
  for (auto& server : servers_) {
    ASSERT_TRUE(server->Flush().ok());
  }
  // GC moves /keep's shares out of the containers /doomed shared, but no
  // new container reaches the backend; the servers go down still failing.
  for (auto& backend : backends_) {
    backend->fail_container_puts = true;
  }
  for (auto& server : servers_) {
    EXPECT_FALSE(server->CollectGarbage().ok());
  }
  transports_.clear();
  servers_.clear();
  for (auto& backend : backends_) {
    backend->fail_container_puts = false;
  }
  for (int i = 0; i < kN; ++i) {
    auto server = Reopen(i, /*dedup_accel=*/true);
    ASSERT_TRUE(server.ok()) << server.status();
    servers_.push_back(std::move(server.value()));
    transports_.push_back(std::make_unique<InProcTransport>(servers_.back()->AsHandler()));
  }
  CdstoreClient healed(TransportPtrs(), 1, SmallClientOptions());
  auto restored = healed.Download("/keep");
  ASSERT_TRUE(restored.ok()) << "the index names a container that never sealed: "
                             << restored.status();
  EXPECT_EQ(restored.value(), keep);
  // The retried GC completes, and /keep survives it too.
  for (auto& server : servers_) {
    auto gc = server->CollectGarbage();
    ASSERT_TRUE(gc.ok()) << gc.status();
    EXPECT_GT(gc.value().live_shares_moved, 0u);
  }
  EXPECT_EQ(healed.Download("/keep").value(), keep);
}

TEST_F(GcTest, GcRefusesCorruptShareIndex) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  ASSERT_TRUE(client.Upload("/keep", Rng(8).RandomBytes(1 << 20)).ok());
  ASSERT_TRUE(client.Upload("/doomed", Rng(9).RandomBytes(200000)).ok());
  ASSERT_TRUE(client.DeleteFile("/doomed").ok());
  ASSERT_TRUE(servers_[0]->Flush().ok());
  transports_[0].reset();
  CorruptShareIndex(0);

  auto server = Reopen(0, /*dedup_accel=*/false);
  ASSERT_TRUE(server.ok()) << server.status();
  auto objects_before = backends_[0]->List();
  ASSERT_TRUE(objects_before.ok());
  // A scan that stopped at the bad block would look like a short live map,
  // and GC would delete containers that still hold live shares.
  auto gc = server.value()->CollectGarbage();
  EXPECT_EQ(gc.status().code(), StatusCode::kCorruption) << gc.status();
  auto objects_after = backends_[0]->List();
  ASSERT_TRUE(objects_after.ok());
  std::sort(objects_before.value().begin(), objects_before.value().end());
  std::sort(objects_after.value().begin(), objects_after.value().end());
  EXPECT_EQ(objects_after.value(), objects_before.value());
}

TEST_F(GcTest, AccelRebuildRefusesCorruptShareIndex) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  ASSERT_TRUE(client.Upload("/f", Rng(10).RandomBytes(1 << 20)).ok());
  ASSERT_TRUE(servers_[0]->Flush().ok());
  transports_[0].reset();
  CorruptShareIndex(0);
  // Blooms built from a truncated scan would answer "definitely absent" for
  // indexed fingerprints.
  auto server = Reopen(0, /*dedup_accel=*/true);
  EXPECT_EQ(server.status().code(), StatusCode::kCorruption) << server.status();
}

TEST_F(GcTest, IndexSnapshotBackupRestore) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(7).RandomBytes(90000);
  ASSERT_TRUE(client.Upload("/snap", data).ok());

  // Snapshot cloud 0's index to its own backend.
  ASSERT_TRUE(servers_[0]->BackupIndexSnapshot("index-snapshot-1").ok());
  EXPECT_TRUE(backends_[0]->Exists("index-snapshot-1"));

  // Catastrophic index loss on cloud 0: new server with an empty index dir
  // but the same (surviving) object backend.
  servers_[0].reset();
  ServerOptions so;
  so.index_dir = dir_.Sub("server0-fresh-index");
  so.container_capacity = 64 * 1024;
  auto fresh = CdstoreServer::Create(backends_[0].get(), so);
  ASSERT_TRUE(fresh.ok());
  servers_[0] = std::move(fresh.value());
  transports_[0] = std::make_unique<InProcTransport>(servers_[0]->AsHandler());

  // Without the index the file is unreachable on cloud 0 — but the client
  // can still restore via the other k clouds.
  CdstoreClient degraded(TransportPtrs(), 1, SmallClientOptions());
  EXPECT_EQ(degraded.Download("/snap").value(), data);

  // Restore the index snapshot and cloud 0 serves again.
  ASSERT_TRUE(servers_[0]->RestoreIndexSnapshot("index-snapshot-1").ok());
  transports_[1]->set_connected(false);  // force use of cloud 0
  CdstoreClient recovered(TransportPtrs(), 1, SmallClientOptions());
  auto restored = recovered.Download("/snap");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  transports_[1]->set_connected(true);
}

}  // namespace
}  // namespace cdstore
