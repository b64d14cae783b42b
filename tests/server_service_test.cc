// Tests of the typed server service API: Dispatch()/ReplyBuilder frames
// are byte-identical to the Encode() wire format across the message
// types, the striped-lock server keeps dedup exact under concurrent
// multi-client uploads, the TCP worker pool drains gracefully on Stop(),
// and Flush() surfaces container-seal errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "src/cloud/profiles.h"
#include "src/cloud/sim_cloud.h"
#include "src/core/server.h"
#include "src/net/service.h"
#include "src/net/tcp.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

Bytes MakeShare(uint64_t seed, size_t size = 600) { return Rng(seed).RandomBytes(size); }

std::vector<RecipeEntry> RecipeFor(const std::vector<Bytes>& shares) {
  std::vector<RecipeEntry> recipe;
  for (const Bytes& s : shares) {
    RecipeEntry e;
    e.fp = FingerprintOf(s);
    e.secret_size = static_cast<uint32_t>(s.size());
    e.share_size = static_cast<uint32_t>(s.size());
    recipe.push_back(e);
  }
  return recipe;
}

class ServerServiceTest : public ::testing::Test {
 protected:
  std::unique_ptr<CdstoreServer> NewServer(StorageBackend* backend, const std::string& sub) {
    ServerOptions so;
    so.index_dir = dir_.Sub(sub);
    auto server = CdstoreServer::Create(backend, so);
    EXPECT_TRUE(server.ok()) << server.status();
    return std::move(server.value());
  }

  TempDir dir_;
};

// Dispatch()'s reply frames must match what Encode() produces for the
// decoded reply — across every message type, including error and
// streamed-shares replies.
TEST_F(ServerServiceTest, DispatchFramesMatchEncodeAcrossAllMessageTypes) {
  MemBackend backend;
  auto server = NewServer(&backend, "a");

  std::vector<Bytes> shares = {MakeShare(1), MakeShare(2), MakeShare(3)};
  const UserId user = 7;

  auto call = [&](const Bytes& request) { return Dispatch(*server, request); };

  // UploadShares: 3 unique + 1 in-request duplicate.
  {
    UploadSharesRequest req;
    req.user = user;
    req.shares = shares;
    req.shares.push_back(shares[0]);
    Bytes frame = call(Encode(req));
    UploadSharesReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(reply.stored, 3u);
    EXPECT_EQ(reply.deduplicated, 1u);
    EXPECT_EQ(frame, Encode(reply));
  }

  // FpQuery: stored but unreferenced shares are not yet the user's.
  {
    FpQueryRequest req;
    req.user = user;
    for (const Bytes& s : shares) {
      req.fps.push_back(FingerprintOf(s));
    }
    req.fps.push_back(FingerprintOf(BytesOf("never uploaded")));
    Bytes frame = call(Encode(req));
    FpQueryReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(reply.duplicate, (std::vector<uint8_t>{0, 0, 0, 0}));
    EXPECT_EQ(frame, Encode(reply));
  }

  // PutFile.
  {
    PutFileRequest req;
    req.user = user;
    req.path_key = BytesOf("path-share-0");
    req.file_size = 3 * 600;
    req.recipe = RecipeFor(shares);
    Bytes frame = call(Encode(req));
    PutFileReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(frame, Encode(reply));
  }

  // FpQuery again: now referenced.
  {
    FpQueryRequest req;
    req.user = user;
    req.fps = {FingerprintOf(shares[0]), FingerprintOf(shares[2])};
    Bytes frame = call(Encode(req));
    FpQueryReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(reply.duplicate, (std::vector<uint8_t>{1, 1}));
  }

  // GetFile round-trips the recipe.
  {
    GetFileRequest req;
    req.user = user;
    req.path_key = BytesOf("path-share-0");
    Bytes frame = call(Encode(req));
    GetFileReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(reply.file_size, 3u * 600u);
    ASSERT_EQ(reply.recipe.size(), shares.size());
    EXPECT_EQ(reply.recipe[1].fp, FingerprintOf(shares[1]));
    EXPECT_EQ(frame, Encode(reply));
  }

  // GetShares: the streamed ReplyBuilder frame must equal the gathered
  // Encode(GetSharesReply) frame, and carry the exact share bytes.
  {
    GetSharesRequest req;
    req.user = user;
    for (const Bytes& s : shares) {
      req.fps.push_back(FingerprintOf(s));
    }
    Bytes frame = call(Encode(req));
    GetSharesReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    ASSERT_EQ(reply.shares.size(), shares.size());
    for (size_t i = 0; i < shares.size(); ++i) {
      EXPECT_EQ(reply.shares[i], shares[i]);
    }
    EXPECT_EQ(frame, Encode(reply));
  }

  // GetShares access control: non-owners get byte-identical errors.
  {
    GetSharesRequest req;
    req.user = user + 1;
    req.fps = {FingerprintOf(shares[0])};
    Bytes frame = call(Encode(req));
    EXPECT_EQ(PeekType(frame), MsgType::kError);
    EXPECT_EQ(DecodeIfError(frame).code(), StatusCode::kPermissionDenied);
  }

  // Stats.
  {
    Bytes frame = call(Encode(StatsRequest{}));
    StatsReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(reply.unique_shares, 3u);
    EXPECT_EQ(reply.file_count, 1u);
    EXPECT_EQ(frame, Encode(reply));
  }

  // DeleteFile orphans all three shares.
  {
    DeleteFileRequest req;
    req.user = user;
    req.path_key = BytesOf("path-share-0");
    Bytes frame = call(Encode(req));
    DeleteFileReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(reply.shares_orphaned, 3u);
    EXPECT_EQ(frame, Encode(reply));
  }

  // Gc reclaims the orphaned containers.
  {
    Bytes frame = call(Encode(GcRequest{}));
    GcReply reply;
    ASSERT_TRUE(Decode(frame, &reply).ok());
    EXPECT_EQ(frame, Encode(reply));
  }

  // Unknown message type and truncated request produce identical errors.
  {
    Bytes bogus = {0xee, 1, 2, 3};
    EXPECT_EQ(PeekType(call(bogus)), MsgType::kError);
    UploadSharesRequest req;
    req.user = user;
    req.shares = {shares[0]};
    Bytes truncated = Encode(req);
    truncated.resize(truncated.size() / 2);
    EXPECT_EQ(PeekType(call(truncated)), MsgType::kError);
  }
}

// The zero-copy request view: every share span must point into the request
// frame itself, not at copied storage.
TEST_F(ServerServiceTest, UploadSharesViewSpansPointIntoFrame) {
  UploadSharesRequest req;
  req.user = 3;
  req.shares = {MakeShare(10, 100), MakeShare(11, 4096), Bytes{}};
  Bytes frame = Encode(req);

  UploadSharesRequestView view;
  ASSERT_TRUE(DecodeView(frame, &view).ok());
  EXPECT_EQ(view.user, 3u);
  ASSERT_EQ(view.shares.size(), req.shares.size());
  const uint8_t* begin = frame.data();
  const uint8_t* end = frame.data() + frame.size();
  for (size_t i = 0; i < view.shares.size(); ++i) {
    EXPECT_EQ(Bytes(view.shares[i].begin(), view.shares[i].end()), req.shares[i]);
    if (!view.shares[i].empty()) {
      EXPECT_GE(view.shares[i].data(), begin);
      EXPECT_LE(view.shares[i].data() + view.shares[i].size(), end);
    }
  }
}

// A handler that never replies must still yield a well-formed error frame.
TEST(ReplyBuilderTest, MissingReplyBecomesError) {
  ReplyBuilder rb;
  Bytes frame = rb.TakeFrame();
  EXPECT_EQ(PeekType(frame), MsgType::kError);
  EXPECT_EQ(DecodeIfError(frame).code(), StatusCode::kInternal);
}

// An error sent mid-stream overrides partially streamed shares.
TEST(ReplyBuilderTest, ErrorOverridesStreamedShares) {
  ReplyBuilder rb;
  rb.BeginShares(2);
  rb.AddShare(BytesOf("partial"));
  rb.SendError(Status::NotFound("gone"));
  Bytes frame = rb.TakeFrame();
  EXPECT_EQ(PeekType(frame), MsgType::kError);
  EXPECT_EQ(DecodeIfError(frame).code(), StatusCode::kNotFound);
}

// Inter-user dedup must stay exact when many clients upload overlapping
// share sets concurrently (§4.3 at scale): every shared fingerprint is
// stored exactly once across all racing requests, and nothing is lost.
TEST_F(ServerServiceTest, ConcurrentMultiClientUploadDedupExact) {
  MemBackend backend;
  auto server = NewServer(&backend, "concurrent");

  constexpr int kThreads = 8;
  constexpr int kSharedShares = 64;
  constexpr int kUniquePerThread = 8;
  constexpr int kBatch = 16;

  std::vector<Bytes> shared;
  for (int i = 0; i < kSharedShares; ++i) {
    shared.push_back(MakeShare(1000 + i));
  }

  std::atomic<uint64_t> total_stored{0};
  std::atomic<uint64_t> total_deduplicated{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Every thread uploads all shared shares (own order) plus its own.
      std::vector<Bytes> mine = shared;
      for (int u = 0; u < kUniquePerThread; ++u) {
        mine.push_back(MakeShare(100000 + t * 1000 + u));
      }
      std::shuffle(mine.begin(), mine.end(), std::mt19937(t));
      for (size_t off = 0; off < mine.size(); off += kBatch) {
        UploadSharesRequest req;
        req.user = static_cast<UserId>(t + 1);
        for (size_t i = off; i < std::min(mine.size(), off + kBatch); ++i) {
          req.shares.push_back(mine[i]);
        }
        Bytes frame = Dispatch(*server, Encode(req));
        UploadSharesReply reply;
        if (!Decode(frame, &reply).ok()) {
          ++failures;
          return;
        }
        total_stored += reply.stored;
        total_deduplicated += reply.deduplicated;
        // Interleave dedup queries, the other hot striped path.
        FpQueryRequest q;
        q.user = req.user;
        q.fps = {FingerprintOf(req.shares[0])};
        FpQueryReply qr;
        if (!Decode(Dispatch(*server, Encode(q)), &qr).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  const uint64_t expect_unique = kSharedShares + kThreads * kUniquePerThread;
  const uint64_t submitted = kThreads * (kSharedShares + kUniquePerThread);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(total_stored.load(), expect_unique) << "a shared share was stored twice or lost";
  EXPECT_EQ(total_stored.load() + total_deduplicated.load(), submitted);
  EXPECT_EQ(server->unique_share_count(), expect_unique);

  // Content survives the storm: reference the shared set and read it back.
  PutFileRequest put;
  put.user = 1;
  put.path_key = BytesOf("after-storm");
  put.file_size = 0;
  put.recipe = RecipeFor(shared);
  ASSERT_TRUE(DecodeIfError(Dispatch(*server, Encode(put))).ok());
  GetSharesRequest get;
  get.user = 1;
  for (const Bytes& s : shared) {
    get.fps.push_back(FingerprintOf(s));
  }
  GetSharesReply got;
  ASSERT_TRUE(Decode(Dispatch(*server, Encode(get)), &got).ok());
  ASSERT_EQ(got.shares.size(), shared.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(got.shares[i], shared[i]);
  }
}

// Stop() must let requests already being served finish and write their
// replies before connections are cut (graceful drain).
TEST(TcpServiceTest, StopDrainsInFlightRequests) {
  std::atomic<int> started{0};
  TcpServerOptions opts;
  opts.num_workers = 2;
  auto server = TcpServer::Listen(0, [&](ConstByteSpan req) {
    ++started;
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return Bytes(req.begin(), req.end());
  }, opts);
  ASSERT_TRUE(server.ok());
  const int port = server.value()->port();

  std::atomic<int> ok_replies{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c]() {
      auto t = TcpTransport::Connect("127.0.0.1", port);
      if (!t.ok()) {
        return;
      }
      Bytes payload = Rng(c).RandomBytes(2000);
      auto reply = t.value()->Call(payload);
      if (reply.ok() && reply.value() == payload) {
        ++ok_replies;
      }
    });
  }
  // Wait until both requests are admitted to the pool, then stop mid-flight.
  while (started.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.value()->Stop();
  for (auto& c : clients) {
    c.join();
  }
  EXPECT_EQ(ok_replies.load(), 2) << "in-flight requests must complete through Stop()";
  // The listener is gone afterwards.
  EXPECT_FALSE(TcpTransport::Connect("127.0.0.1", port).ok());
}

// More connections than workers: the shared pool multiplexes them all.
TEST(TcpServiceTest, WorkerPoolServesMoreConnectionsThanWorkers) {
  TcpServerOptions opts;
  opts.num_workers = 3;
  auto server =
      TcpServer::Listen(0, [](ConstByteSpan req) { return Bytes(req.begin(), req.end()); }, opts);
  ASSERT_TRUE(server.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c]() {
      auto t = TcpTransport::Connect("127.0.0.1", server.value()->port());
      if (!t.ok()) {
        ++failures;
        return;
      }
      Rng rng(c);
      for (int i = 0; i < 12; ++i) {
        Bytes payload = rng.RandomBytes(1 + rng.Uniform(20000));
        auto reply = t.value()->Call(payload);
        if (!reply.ok() || reply.value() != payload) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) {
    c.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// The typed-service TCP front end serves a real CdstoreServer.
TEST_F(ServerServiceTest, TcpFrontEndDispatchesTypedService) {
  MemBackend backend;
  auto server = NewServer(&backend, "tcp");
  auto tcp = TcpServer::Listen(0, server.get());
  ASSERT_TRUE(tcp.ok());
  auto t = TcpTransport::Connect("127.0.0.1", tcp.value()->port());
  ASSERT_TRUE(t.ok());

  UploadSharesRequest req;
  req.user = 1;
  req.shares = {MakeShare(500), MakeShare(501)};
  auto frame = t.value()->Call(Encode(req));
  ASSERT_TRUE(frame.ok());
  UploadSharesReply reply;
  ASSERT_TRUE(Decode(frame.value(), &reply).ok());
  EXPECT_EQ(reply.stored, 2u);
  tcp.value()->Stop();
}

// Flush() must surface container-seal failures instead of dropping them,
// and a later flush retries the still-open containers.
TEST_F(ServerServiceTest, FlushPropagatesContainerSealErrors) {
  MemBackend inner;
  SimCloud cloud(&inner, UnlimitedProfile());
  auto server = NewServer(&cloud, "flush");

  UploadSharesRequest req;
  req.user = 1;
  req.shares = {MakeShare(900), MakeShare(901)};
  ASSERT_TRUE(DecodeIfError(Dispatch(*server, Encode(req))).ok());

  cloud.set_available(false);
  Status st = server->Flush();
  EXPECT_FALSE(st.ok()) << "seal failure must propagate out of Flush()";
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);

  cloud.set_available(true);
  EXPECT_TRUE(server->Flush().ok()) << "retry must seal the still-open container";
  auto objects = inner.List();
  ASSERT_TRUE(objects.ok());
  EXPECT_FALSE(objects.value().empty()) << "sealed container must reach the backend";
}

}  // namespace
}  // namespace cdstore
