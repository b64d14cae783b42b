// Streaming pipeline tests: CodingPipeline::Stream must produce exactly
// what EncodeAll produces (same shares, same order, correct fingerprints),
// the streaming client upload must be observably identical to the barrier
// upload (recipes, dedup stats, server state), and the move-accepting
// ReedSolomon::Encode must match the copying overload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/client.h"
#include "src/core/coding_pipeline.h"
#include "src/core/server.h"
#include "src/dedup/fingerprint.h"
#include "src/dispersal/aont_rs.h"
#include "src/net/transport.h"
#include "src/rs/reed_solomon.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// --------------------------------------------------- stream vs EncodeAll --

std::vector<Bytes> MakeSecrets(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> secrets;
  secrets.reserve(count);
  for (int i = 0; i < count; ++i) {
    // Odd sizes included: padding paths must agree too.
    secrets.push_back(rng.RandomBytes(1 + rng.Uniform(6000)));
  }
  return secrets;
}

TEST(CodingStreamTest, MatchesEncodeAllSharesOrderAndFingerprints) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 3);
  std::vector<Bytes> secrets = MakeSecrets(200, 21);

  std::vector<std::vector<Bytes>> barrier_shares;
  ASSERT_TRUE(pipeline.EncodeAll(secrets, &barrier_shares).ok());

  std::vector<CodingPipeline::EncodedSecret> bundles;
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) { bundles.push_back(std::move(b)); },
        /*queue_depth=*/8);
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(ConstByteSpan(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }

  ASSERT_EQ(bundles.size(), secrets.size());
  for (size_t i = 0; i < secrets.size(); ++i) {
    EXPECT_EQ(bundles[i].seq, i) << "bundles must arrive in submission order";
    EXPECT_EQ(bundles[i].secret_size, secrets[i].size());
    // CAONT-RS is deterministic: streaming shares must equal barrier shares.
    EXPECT_EQ(bundles[i].shares, barrier_shares[i]);
    ASSERT_EQ(bundles[i].fps.size(), bundles[i].shares.size());
    for (size_t c = 0; c < bundles[i].shares.size(); ++c) {
      EXPECT_EQ(bundles[i].fps[c], FingerprintOf(bundles[i].shares[c]));
    }
  }
}

TEST(CodingStreamTest, OwnedSubmissionMatchesSpanSubmission) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 2);
  std::vector<Bytes> secrets = MakeSecrets(50, 22);

  std::vector<std::vector<Bytes>> by_span;
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) { by_span.push_back(std::move(b.shares)); }, 4);
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(ConstByteSpan(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }
  std::vector<std::vector<Bytes>> by_owned;
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) { by_owned.push_back(std::move(b.shares)); }, 4);
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(Bytes(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }
  EXPECT_EQ(by_span, by_owned);
}

TEST(CodingStreamTest, SlowSinkBackpressureDoesNotDeadlockOrReorder) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 4);
  std::vector<Bytes> secrets = MakeSecrets(60, 23);

  uint64_t expect_seq = 0;
  std::atomic<int> delivered{0};
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          ASSERT_EQ(b.seq, expect_seq++);
          ++delivered;
        },
        /*queue_depth=*/2);  // tiny queue: Submit must block, not fail
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(ConstByteSpan(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }
  EXPECT_EQ(delivered.load(), static_cast<int>(secrets.size()));
}

TEST(CodingStreamTest, EmptyStreamFinishesCleanly) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 2);
  int delivered = 0;
  auto stream = pipeline.OpenStream([&](CodingPipeline::EncodedSecret) { ++delivered; }, 4);
  EXPECT_TRUE(stream->Finish().ok());
  EXPECT_EQ(delivered, 0);
}

// A scheme that fails on every secret whose first byte is the poison value;
// exercises the stream's error path.
class PoisonScheme : public SecretSharing {
 public:
  explicit PoisonScheme(std::unique_ptr<SecretSharing> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return "poison"; }
  int n() const override { return inner_->n(); }
  int k() const override { return inner_->k(); }
  int r() const override { return inner_->r(); }
  bool deterministic() const override { return inner_->deterministic(); }
  Status Encode(ConstByteSpan secret, std::vector<Bytes>* shares) override {
    if (!secret.empty() && secret[0] == 0xEE) {
      return Status::Internal("poisoned secret");
    }
    return inner_->Encode(secret, shares);
  }
  Status Decode(const std::vector<int>& ids, const std::vector<Bytes>& shares,
                size_t secret_size, Bytes* secret) override {
    return inner_->Decode(ids, shares, secret_size, secret);
  }
  size_t ShareSize(size_t secret_size) const override { return inner_->ShareSize(secret_size); }

 private:
  std::unique_ptr<SecretSharing> inner_;
};

TEST(CodingStreamTest, EncodeErrorSurfacesAndStreamStillDrains) {
  PoisonScheme scheme(MakeCaontRs(4, 3));
  CodingPipeline pipeline(&scheme, 3);
  Rng rng(24);
  int delivered = 0;
  auto stream = pipeline.OpenStream([&](CodingPipeline::EncodedSecret) { ++delivered; }, 4);
  Status submit_status;
  for (int i = 0; i < 100; ++i) {
    Bytes secret = rng.RandomBytes(500);
    secret[0] = (i == 40) ? 0xEE : 0x00;
    submit_status = stream->Submit(Bytes(secret));
    if (!submit_status.ok()) {
      break;
    }
  }
  Status finish_status = stream->Finish();
  EXPECT_FALSE(finish_status.ok()) << "poisoned encode must surface from Finish";
  EXPECT_LT(delivered, 100);
}

// ------------------------------------------- streaming vs barrier upload --

class UploadEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;
  static constexpr int kK = 3;

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

    StatsReply ServerStats(int i) {
      Bytes frame = Dispatch(*servers[i], Encode(StatsRequest{}));
      StatsReply reply;
      EXPECT_TRUE(Decode(frame, &reply).ok());
      return reply;
    }
  };

  static std::unique_ptr<Deployment> MakeDeployment() {
    auto d = std::make_unique<Deployment>();
    for (int i = 0; i < kN; ++i) {
      d->backends.push_back(std::make_unique<MemBackend>());
      ServerOptions so;
      so.index_dir = d->dir.Sub("server" + std::to_string(i));
      auto server = CdstoreServer::Create(d->backends.back().get(), so);
      EXPECT_TRUE(server.ok()) << server.status();
      d->servers.push_back(std::move(server.value()));
      d->transports.push_back(std::make_unique<InProcTransport>(d->servers.back()->AsHandler()));
    }
    return d;
  }

  static ClientOptions Options(bool streaming) {
    ClientOptions o;
    o.n = kN;
    o.k = kK;
    o.encode_threads = 3;
    o.rabin.min_size = 512;
    o.rabin.avg_size = 2048;
    o.rabin.max_size = 8192;
    o.streaming_upload = streaming;
    o.pipeline_queue_depth = 8;
    // Small batches force several query/upload round trips per cloud, so
    // the interleaved dedup protocol is actually exercised.
    o.upload_batch_bytes = 64 * 1024;
    return o;
  }

  // Data with internal duplication so intra-upload dedup fires.
  static Bytes DupHeavyData(size_t size, uint64_t seed) {
    Bytes block = Rng(seed).RandomBytes(size / 4);
    Bytes data;
    data.reserve(size);
    for (int rep = 0; rep < 3; ++rep) {
      data.insert(data.end(), block.begin(), block.end());
    }
    Bytes tail = Rng(seed + 1).RandomBytes(size - data.size());
    data.insert(data.end(), tail.begin(), tail.end());
    return data;
  }
};

TEST_F(UploadEquivalenceTest, StreamingMatchesBarrierStatsServerStateAndContent) {
  Bytes data = DupHeavyData(700000, 31);

  auto barrier_world = MakeDeployment();
  auto streaming_world = MakeDeployment();
  CdstoreClient barrier_client(barrier_world->TransportPtrs(), 1, Options(false));
  CdstoreClient streaming_client(streaming_world->TransportPtrs(), 1, Options(true));

  UploadStats barrier_stats;
  UploadStats streaming_stats;
  ASSERT_TRUE(barrier_client.Upload("/file", data, &barrier_stats).ok());
  ASSERT_TRUE(streaming_client.Upload("/file", data, &streaming_stats).ok());

  // Identical accounting (timing aside).
  EXPECT_EQ(streaming_stats.logical_bytes, barrier_stats.logical_bytes);
  EXPECT_EQ(streaming_stats.num_secrets, barrier_stats.num_secrets);
  EXPECT_EQ(streaming_stats.logical_share_bytes, barrier_stats.logical_share_bytes);
  EXPECT_EQ(streaming_stats.transferred_share_bytes, barrier_stats.transferred_share_bytes);
  EXPECT_EQ(streaming_stats.intra_duplicate_shares, barrier_stats.intra_duplicate_shares);
  EXPECT_GT(streaming_stats.intra_duplicate_shares, 0u) << "test data must contain dups";

  // Identical server-side state: same unique shares, bytes, and files.
  for (int i = 0; i < kN; ++i) {
    StatsReply b = barrier_world->ServerStats(i);
    StatsReply s = streaming_world->ServerStats(i);
    EXPECT_EQ(s.unique_shares, b.unique_shares) << "cloud " << i;
    EXPECT_EQ(s.stored_bytes, b.stored_bytes) << "cloud " << i;
    EXPECT_EQ(s.file_count, b.file_count) << "cloud " << i;
  }

  // Both restore, and a barrier-mode client can read a streaming upload
  // (identical recipes on the wire).
  EXPECT_EQ(barrier_client.Download("/file").value(), data);
  EXPECT_EQ(streaming_client.Download("/file").value(), data);
  CdstoreClient cross_reader(streaming_world->TransportPtrs(), 1, Options(false));
  EXPECT_EQ(cross_reader.Download("/file").value(), data);
}

TEST_F(UploadEquivalenceTest, StreamingReuploadFullyDedups) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options(true));
  Bytes data = Rng(32).RandomBytes(300000);
  ASSERT_TRUE(client.Upload("/v1", data).ok());
  UploadStats second;
  ASSERT_TRUE(client.Upload("/v2", data, &second).ok());
  EXPECT_EQ(second.transferred_share_bytes, 0u);
  EXPECT_EQ(second.intra_duplicate_shares, second.num_secrets * kN);
}

TEST_F(UploadEquivalenceTest, StreamingUploadFailsCleanlyWhenCloudDisconnected) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options(true));
  world->transports[2]->set_connected(false);
  Bytes data = Rng(33).RandomBytes(200000);
  Status st = client.Upload("/doomed", data);
  EXPECT_FALSE(st.ok()) << "upload must report the failed cloud";
  world->transports[2]->set_connected(true);
  // The pipeline must not have wedged: a retry succeeds end to end.
  ASSERT_TRUE(client.Upload("/doomed", data).ok());
  EXPECT_EQ(client.Download("/doomed").value(), data);
}

// --------------------------------------------------- RS move-encode path --

TEST(ReedSolomonMoveTest, MoveEncodeMatchesCopyEncode) {
  ReedSolomon rs(6, 4);
  Rng rng(41);
  for (size_t shard_size : {1ul, 17ul, 1024ul}) {
    std::vector<Bytes> shards;
    for (int i = 0; i < 4; ++i) {
      shards.push_back(rng.RandomBytes(shard_size));
    }
    std::vector<Bytes> copied;
    ASSERT_TRUE(rs.Encode(shards, &copied).ok());  // lvalue: copying overload
    std::vector<Bytes> moved;
    ASSERT_TRUE(rs.Encode(std::move(shards), &moved).ok());
    EXPECT_EQ(moved, copied);
  }
}

}  // namespace
}  // namespace cdstore
