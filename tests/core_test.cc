// End-to-end tests of the CDStore system: client + n servers + simulated
// clouds, exercising two-stage dedup, reliability under cloud failures,
// corruption recovery, metadata handling, deletion and repair.
#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/trace/synthetic.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

class CdstoreSystemTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;
  static constexpr int kK = 3;

  void SetUp() override {
    for (int i = 0; i < kN; ++i) {
      backends_.push_back(std::make_unique<MemBackend>());
      ServerOptions so;
      so.index_dir = dir_.Sub("server" + std::to_string(i));
      auto server = CdstoreServer::Create(backends_.back().get(), so);
      ASSERT_TRUE(server.ok()) << server.status();
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
    o.k = kK;
    o.encode_threads = 2;
    o.rabin.min_size = 512;
    o.rabin.avg_size = 2048;
    o.rabin.max_size = 8192;
    return o;
  }

  StatsReply ServerStats(int i) {
    Bytes frame = Dispatch(*servers_[i], Encode(StatsRequest{}));
    StatsReply reply;
    EXPECT_TRUE(Decode(frame, &reply).ok());
    return reply;
  }

  TempDir dir_;
  std::vector<std::unique_ptr<MemBackend>> backends_;
  std::vector<std::unique_ptr<CdstoreServer>> servers_;
  std::vector<std::unique_ptr<InProcTransport>> transports_;
};

TEST_F(CdstoreSystemTest, UploadDownloadRoundTrip) {
  CdstoreClient client(TransportPtrs(), /*user=*/1, SmallClientOptions());
  Bytes data = Rng(1).RandomBytes(500000);
  UploadStats up;
  ASSERT_TRUE(client.Upload("/backups/file1.tar", data, &up).ok());
  EXPECT_EQ(up.logical_bytes, data.size());
  EXPECT_GT(up.num_secrets, 50u);
  // (n,k)=(4,3): logical shares ~ 4/3 of the data plus hash overhead.
  EXPECT_GT(up.logical_share_bytes, data.size() * 4 / 3);

  DownloadStats down;
  auto restored = client.Download("/backups/file1.tar", &down);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  EXPECT_EQ(down.clouds_used.size(), static_cast<size_t>(kK));
}

TEST_F(CdstoreSystemTest, EmptyFileRoundTrip) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  ASSERT_TRUE(client.Upload("/empty", ConstByteSpan{}).ok());
  auto restored = client.Download("/empty");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored.value().empty());
}

TEST_F(CdstoreSystemTest, SmallFileRoundTrip) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = BytesOf("tiny payload");
  ASSERT_TRUE(client.Upload("/tiny", data).ok());
  auto restored = client.Download("/tiny");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), data);
}

TEST_F(CdstoreSystemTest, IntraUserDedupSkipsDuplicateUpload) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(2).RandomBytes(300000);
  UploadStats first;
  ASSERT_TRUE(client.Upload("/v1", data, &first).ok());
  EXPECT_GT(first.transferred_share_bytes, 0u);

  // Same content, different path: every share is an intra-user duplicate.
  UploadStats second;
  ASSERT_TRUE(client.Upload("/v2", data, &second).ok());
  EXPECT_EQ(second.transferred_share_bytes, 0u)
      << "re-upload of identical content must transfer no shares";
  EXPECT_EQ(second.intra_duplicate_shares, second.num_secrets * kN);

  // Both copies restore.
  EXPECT_EQ(client.Download("/v1").value(), data);
  EXPECT_EQ(client.Download("/v2").value(), data);
}

TEST_F(CdstoreSystemTest, InterUserDedupStoresOnce) {
  CdstoreClient alice(TransportPtrs(), 1, SmallClientOptions());
  CdstoreClient bob(TransportPtrs(), 2, SmallClientOptions());
  Bytes data = Rng(3).RandomBytes(200000);
  ASSERT_TRUE(alice.Upload("/shared", data).ok());
  StatsReply after_alice = ServerStats(0);

  UploadStats bob_up;
  ASSERT_TRUE(bob.Upload("/bobs-copy", data, &bob_up).ok());
  StatsReply after_bob = ServerStats(0);

  // Bob's client cannot skip the transfer (intra-user dedup only sees his
  // own data) but the server deduplicates storage (§3.3).
  EXPECT_GT(bob_up.transferred_share_bytes, 0u);
  EXPECT_EQ(after_bob.unique_shares, after_alice.unique_shares)
      << "inter-user dedup must not store duplicate shares";
  EXPECT_EQ(after_bob.stored_bytes, after_alice.stored_bytes);

  EXPECT_EQ(bob.Download("/bobs-copy").value(), data);
  EXPECT_EQ(alice.Download("/shared").value(), data);
}

TEST_F(CdstoreSystemTest, SideChannelFpQueryDoesNotLeakOtherUsers) {
  // The attack of [28]: an attacker checks by fingerprint whether someone
  // else stored a file. With two-stage dedup the answer must always be
  // "not a duplicate for you".
  CdstoreClient alice(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(4).RandomBytes(100000);
  ASSERT_TRUE(alice.Upload("/secret", data).ok());

  // Mallory crafts the same shares (she knows the plaintext hypothesis) and
  // queries cloud 0 for their fingerprints under her own user id.
  auto scheme = MakeCaontRs(kN, kK);
  RabinChunkerOptions ro;
  ro.min_size = 512;
  ro.avg_size = 2048;
  ro.max_size = 8192;
  RabinChunker chunker(ro);
  auto secrets = ChunkBuffer(chunker, data);
  FpQueryRequest query;
  query.user = 666;  // Mallory
  for (const Bytes& secret : secrets) {
    std::vector<Bytes> shares;
    ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
    query.fps.push_back(FingerprintOf(shares[0]));
  }
  Bytes frame = Dispatch(*servers_[0], Encode(query));
  FpQueryReply reply;
  ASSERT_TRUE(Decode(frame, &reply).ok());
  for (uint8_t dup : reply.duplicate) {
    EXPECT_EQ(dup, 0) << "server must not reveal other users' dedup status";
  }
}

TEST_F(CdstoreSystemTest, GetSharesRequiresOwnership) {
  // The attack of [27]: possessing a fingerprint must not grant access to
  // the share content.
  CdstoreClient alice(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(5).RandomBytes(50000);
  ASSERT_TRUE(alice.Upload("/private", data).ok());

  // Mallory derives a valid fingerprint from hypothesized plaintext (the
  // convergent scheme is deterministic, so this is always possible).
  auto scheme = MakeCaontRs(kN, kK);
  RabinChunkerOptions ro;
  ro.min_size = 512;
  ro.avg_size = 2048;
  ro.max_size = 8192;
  RabinChunker chunker(ro);
  auto secrets = ChunkBuffer(chunker, data);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secrets[0], &shares).ok());

  GetSharesRequest req;
  req.user = 666;  // not an owner
  req.fps = {FingerprintOf(shares[0])};
  Bytes frame = Dispatch(*servers_[0], Encode(req));
  Status st = DecodeIfError(frame);
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);
}

TEST_F(CdstoreSystemTest, DownloadSurvivesNMinusKCloudFailures) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(6).RandomBytes(400000);
  ASSERT_TRUE(client.Upload("/resilient", data).ok());

  // n-k = 1 cloud down: restore must succeed from the other 3.
  transports_[1]->set_connected(false);
  DownloadStats stats;
  auto restored = client.Download("/resilient", &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  for (int used : stats.clouds_used) {
    EXPECT_NE(used, 1);
  }
  transports_[1]->set_connected(true);
}

TEST_F(CdstoreSystemTest, DownloadFailsWithTooManyCloudFailures) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(7).RandomBytes(100000);
  ASSERT_TRUE(client.Upload("/doomed", data).ok());
  transports_[0]->set_connected(false);
  transports_[2]->set_connected(false);  // only 2 < k clouds left
  auto restored = client.Download("/doomed");
  EXPECT_FALSE(restored.ok());
  transports_[0]->set_connected(true);
  transports_[2]->set_connected(true);
}

TEST_F(CdstoreSystemTest, UnknownFileReturnsNotFound) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  auto restored = client.Download("/never-uploaded");
  EXPECT_FALSE(restored.ok());
}

TEST_F(CdstoreSystemTest, UsersCannotSeeEachOthersFiles) {
  CdstoreClient alice(TransportPtrs(), 1, SmallClientOptions());
  CdstoreClient bob(TransportPtrs(), 2, SmallClientOptions());
  Bytes data = Rng(8).RandomBytes(50000);
  ASSERT_TRUE(alice.Upload("/alices-file", data).ok());
  EXPECT_FALSE(bob.Download("/alices-file").ok())
      << "file namespaces must be per user";
}

TEST_F(CdstoreSystemTest, DeleteFileRemovesAccessAndDropsRefs) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(9).RandomBytes(150000);
  ASSERT_TRUE(client.Upload("/condemned", data).ok());
  StatsReply before = ServerStats(0);
  EXPECT_GT(before.unique_shares, 0u);
  ASSERT_TRUE(client.DeleteFile("/condemned").ok());
  EXPECT_FALSE(client.Download("/condemned").ok());
  StatsReply after = ServerStats(0);
  EXPECT_EQ(after.file_count, before.file_count - 1);
  // All shares were only referenced by this file: the index drops them.
  EXPECT_EQ(after.unique_shares, 0u);
}

TEST_F(CdstoreSystemTest, DeleteKeepsSharedShares) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(10).RandomBytes(100000);
  ASSERT_TRUE(client.Upload("/copy1", data).ok());
  ASSERT_TRUE(client.Upload("/copy2", data).ok());
  ASSERT_TRUE(client.DeleteFile("/copy1").ok());
  // copy2 still restores: its references kept the shares alive.
  auto restored = client.Download("/copy2");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
}

TEST_F(CdstoreSystemTest, OverwriteReplacesContent) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes v1 = Rng(11).RandomBytes(80000);
  Bytes v2 = Rng(12).RandomBytes(90000);
  ASSERT_TRUE(client.Upload("/file", v1).ok());
  ASSERT_TRUE(client.Upload("/file", v2).ok());
  EXPECT_EQ(client.Download("/file").value(), v2);
}

TEST_F(CdstoreSystemTest, RepairRebuildsLostCloud) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(13).RandomBytes(250000);
  ASSERT_TRUE(client.Upload("/precious", data).ok());

  // Cloud 2 loses everything (fresh backend + server). The old server must
  // go first: it flushes to its backend on shutdown.
  servers_[2].reset();
  backends_[2] = std::make_unique<MemBackend>();
  ServerOptions so;
  so.index_dir = dir_.Sub("server2-rebuilt");
  auto server = CdstoreServer::Create(backends_[2].get(), so);
  ASSERT_TRUE(server.ok());
  servers_[2] = std::move(server.value());
  transports_[2] = std::make_unique<InProcTransport>(servers_[2]->AsHandler());

  // Repair re-encodes from the survivors and repopulates cloud 2.
  CdstoreClient fresh_client(TransportPtrs(), 1, SmallClientOptions());
  ASSERT_TRUE(fresh_client.RepairFile("/precious", 2).ok());
  EXPECT_GT(ServerStats(2).unique_shares, 0u);

  // Now cloud 0 fails; restore leans on the repaired cloud 2.
  transports_[0]->set_connected(false);
  auto restored = fresh_client.Download("/precious");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  transports_[0]->set_connected(true);
}

TEST_F(CdstoreSystemTest, ServerStatePersistsAcrossRestart) {
  CdstoreClient client(TransportPtrs(), 1, SmallClientOptions());
  Bytes data = Rng(14).RandomBytes(120000);
  ASSERT_TRUE(client.Upload("/durable", data).ok());

  // Restart every server process on the same backend + index dir.
  for (int i = 0; i < kN; ++i) {
    servers_[i].reset();
    ServerOptions so;
    so.index_dir = dir_.Sub("server" + std::to_string(i));
    auto server = CdstoreServer::Create(backends_[i].get(), so);
    ASSERT_TRUE(server.ok()) << server.status();
    servers_[i] = std::move(server.value());
    transports_[i] = std::make_unique<InProcTransport>(servers_[i]->AsHandler());
  }
  CdstoreClient fresh(TransportPtrs(), 1, SmallClientOptions());
  auto restored = fresh.Download("/durable");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
}

TEST_F(CdstoreSystemTest, WorksOverRealTcpSockets) {
  std::vector<std::unique_ptr<TcpServer>> tcp_servers;
  std::vector<std::unique_ptr<TcpTransport>> tcp_clients;
  std::vector<Transport*> transports;
  for (int i = 0; i < kN; ++i) {
    auto server = TcpServer::Listen(0, servers_[i]->AsHandler());
    ASSERT_TRUE(server.ok());
    auto client = TcpTransport::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(client.ok());
    tcp_servers.push_back(std::move(server.value()));
    tcp_clients.push_back(std::move(client.value()));
    transports.push_back(tcp_clients.back().get());
  }
  CdstoreClient client(transports, 1, SmallClientOptions());
  Bytes data = Rng(15).RandomBytes(300000);
  ASSERT_TRUE(client.Upload("/over-tcp", data).ok());
  auto restored = client.Download("/over-tcp");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  for (auto& s : tcp_servers) {
    s->Stop();
  }
}

TEST_F(CdstoreSystemTest, DeterministicSharePlacementAcrossClients) {
  // §3.2: share i of a secret always lands on cloud i, for any client
  // instance — a precondition for cross-user dedup.
  CdstoreClient c1(TransportPtrs(), 1, SmallClientOptions());
  CdstoreClient c2(TransportPtrs(), 2, SmallClientOptions());
  Bytes data = Rng(16).RandomBytes(64000);
  ASSERT_TRUE(c1.Upload("/a", data).ok());
  StatsReply cloud0 = ServerStats(0);
  StatsReply cloud1 = ServerStats(1);
  ASSERT_TRUE(c2.Upload("/b", data).ok());
  // No new unique shares on any cloud: every share matched c1's placement.
  EXPECT_EQ(ServerStats(0).unique_shares, cloud0.unique_shares);
  EXPECT_EQ(ServerStats(1).unique_shares, cloud1.unique_shares);
}

TEST_F(CdstoreSystemTest, WeeklyBackupsDeduplicateLikeThePaper) {
  // Miniature Figure 6 scenario: weekly FSL-like backups, intra-user
  // savings should be very high after week 1.
  auto opts = SyntheticDataset::FslDefaults(0.25);
  opts.num_users = 2;
  opts.num_weeks = 3;
  SyntheticDataset dataset(opts);
  ClientOptions co = SmallClientOptions();

  uint64_t week1_transferred = 0;
  uint64_t week2_logical_shares = 0;
  uint64_t week2_transferred = 0;
  for (int u = 0; u < opts.num_users; ++u) {
    CdstoreClient client(TransportPtrs(), 100 + u, co);
    for (int w = 0; w < opts.num_weeks; ++w) {
      Bytes file = dataset.FileFor(u, w);
      UploadStats stats;
      ASSERT_TRUE(client
                      .Upload("/u" + std::to_string(u) + "/week" + std::to_string(w), file,
                              &stats)
                      .ok());
      if (w == 0) {
        week1_transferred += stats.transferred_share_bytes;
      } else {
        week2_logical_shares += stats.logical_share_bytes;
        week2_transferred += stats.transferred_share_bytes;
      }
    }
  }
  EXPECT_GT(week1_transferred, 0u);
  double intra_saving =
      1.0 - static_cast<double>(week2_transferred) / static_cast<double>(week2_logical_shares);
  EXPECT_GT(intra_saving, 0.85) << "subsequent weekly backups must mostly dedup";
}

// A reply that is not a well-formed reply of the requested type fails the
// client call: a kError frame carrying code 0 (kOk) or an unknown code, a
// reply of another type, or a truncated reply. The retention calls check
// every cloud's reply, not only the one that supplies the summary.
TEST(ClientReplyCheckTest, MalformedRepliesFailTheCall) {
  const std::vector<Bytes> bad_replies = {
      {0x00, 0x00, 0x00},
      {0x00, 0xee, 0x00},
      Encode(StatsReply{}),
      {static_cast<uint8_t>(MsgType::kDeleteFileReply), 1, 2},
  };
  EXPECT_EQ(DecodeIfError(bad_replies[0]).code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeIfError(bad_replies[1]).code(), StatusCode::kCorruption);

  for (size_t b = 0; b < bad_replies.size(); ++b) {
    SCOPED_TRACE("bad reply " + std::to_string(b));
    const Bytes bad = bad_replies[b];
    // Cloud 0 answers the retention RPCs well; every other reply is bad.
    auto good_first = [bad](ConstByteSpan request) {
      switch (PeekType(request)) {
        case MsgType::kApplyRetentionRequest:
          return Encode(ApplyRetentionReply{});
        case MsgType::kApplyRetentionNamespaceRequest:
          return Encode(ApplyRetentionNamespaceReply{});
        default:
          return bad;
      }
    };
    std::vector<std::unique_ptr<InProcTransport>> transports;
    std::vector<Transport*> ptrs;
    for (int i = 0; i < 4; ++i) {
      transports.push_back(std::make_unique<InProcTransport>(
          i == 0 ? RpcHandler(good_first) : RpcHandler([bad](ConstByteSpan) { return bad; })));
      ptrs.push_back(transports.back().get());
    }
    ClientOptions o;
    o.n = 4;
    o.k = 3;
    CdstoreClient client(ptrs, /*user=*/1, o);
    RetentionPolicy keep_one{1, 0, 0};
    EXPECT_FALSE(client.DeleteFile("/f").ok());
    EXPECT_FALSE(client.DeleteVersion("/f", 1).ok());
    EXPECT_FALSE(client.ApplyRetention("/f", keep_one).ok());
    EXPECT_FALSE(client.ApplyRetentionNamespace(keep_one).ok());
  }
}

}  // namespace
}  // namespace cdstore
