// Streaming pipeline tests: CodingPipeline::Stream must produce exactly
// what EncodeAll produces (same shares, same order, correct fingerprints),
// the client upload must match an offline replay of the same bytes (dedup
// stats, server state, restored content), and the move-accepting
// ReedSolomon::Encode must match the copying overload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "src/chunking/chunker.h"
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

  std::vector<std::vector<Bytes>> batch_shares;
  ASSERT_TRUE(pipeline.EncodeAll(secrets, &batch_shares).ok());

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
    // CAONT-RS is deterministic: streaming shares must equal batch shares.
    EXPECT_EQ(bundles[i].shares, batch_shares[i]);
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

// ---------------------------------------------- upload vs offline replay --

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

  static ClientOptions Options() {
    ClientOptions o;
    o.n = kN;
    o.k = kK;
    o.encode_threads = 3;
    o.rabin.min_size = 512;
    o.rabin.avg_size = 2048;
    o.rabin.max_size = 8192;
    o.pipeline_queue_depth = 8;
    // Small batches force several query/upload round trips per cloud, so
    // the interleaved dedup protocol is actually exercised.
    o.stream_batch_bytes = 64 * 1024;
    return o;
  }

  // What an upload of `data` into empty clouds must report, computed
  // without the client: chunk with the same chunker, encode with
  // CodingPipeline::EncodeAll under the same scheme, and fingerprint every
  // share. On each cloud the first copy of a fingerprint is transferred and
  // every later copy is an intra-upload duplicate.
  struct Replay {
    uint64_t num_secrets = 0;
    uint64_t logical_share_bytes = 0;
    uint64_t transferred_share_bytes[kN] = {};
    uint64_t intra_duplicate_shares[kN] = {};
    uint64_t unique_shares[kN] = {};
  };

  static Replay ReplayUpload(const ClientOptions& o, const Bytes& data) {
    RabinChunker chunker(o.rabin);
    std::vector<Bytes> secrets = ChunkBuffer(chunker, data);
    auto scheme = MakeCaontRs(o.n, o.k, o.salt);
    CodingPipeline pipeline(scheme.get(), 2);
    std::vector<std::vector<Bytes>> shares;
    EXPECT_TRUE(pipeline.EncodeAll(secrets, &shares).ok());
    Replay r;
    r.num_secrets = secrets.size();
    for (int c = 0; c < kN; ++c) {
      std::unordered_set<Fingerprint, FingerprintHash> seen;
      for (const std::vector<Bytes>& bundle : shares) {
        const Bytes& share = bundle[c];
        r.logical_share_bytes += share.size();
        if (seen.insert(FingerprintOf(share)).second) {
          r.transferred_share_bytes[c] += share.size();
        } else {
          ++r.intra_duplicate_shares[c];
        }
      }
      r.unique_shares[c] = seen.size();
    }
    return r;
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

TEST_F(UploadEquivalenceTest, UploadMatchesOfflineReplayStatsServerStateAndContent) {
  Bytes data = DupHeavyData(700000, 31);
  Replay expected = ReplayUpload(Options(), data);

  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options());
  UploadStats stats;
  ASSERT_TRUE(client.Upload("/file", data, &stats).ok());

  EXPECT_EQ(stats.logical_bytes, data.size());
  EXPECT_EQ(stats.num_secrets, expected.num_secrets);
  EXPECT_EQ(stats.logical_share_bytes, expected.logical_share_bytes);
  uint64_t transferred = 0;
  uint64_t dups = 0;
  ASSERT_EQ(stats.per_cloud.size(), static_cast<size_t>(kN));
  for (int c = 0; c < kN; ++c) {
    EXPECT_EQ(stats.per_cloud[c].transferred_share_bytes, expected.transferred_share_bytes[c])
        << "cloud " << c;
    EXPECT_EQ(stats.per_cloud[c].intra_duplicate_shares, expected.intra_duplicate_shares[c])
        << "cloud " << c;
    transferred += expected.transferred_share_bytes[c];
    dups += expected.intra_duplicate_shares[c];
  }
  EXPECT_EQ(stats.transferred_share_bytes, transferred);
  EXPECT_EQ(stats.intra_duplicate_shares, dups);
  EXPECT_GT(stats.intra_duplicate_shares, 0u) << "test data must contain dups";

  // Each cloud stored exactly the distinct shares the replay produced.
  for (int c = 0; c < kN; ++c) {
    StatsReply server = world->ServerStats(c);
    EXPECT_EQ(server.unique_shares, expected.unique_shares[c]) << "cloud " << c;
    EXPECT_EQ(server.file_count, 1u) << "cloud " << c;
  }

  // The uploading client and a fresh one both restore the bytes.
  EXPECT_EQ(client.Download("/file").value(), data);
  CdstoreClient reader(world->TransportPtrs(), 1, Options());
  EXPECT_EQ(reader.Download("/file").value(), data);
}

TEST_F(UploadEquivalenceTest, StreamingReuploadFullyDedups) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options());
  Bytes data = Rng(32).RandomBytes(300000);
  ASSERT_TRUE(client.Upload("/v1", data).ok());
  UploadStats second;
  ASSERT_TRUE(client.Upload("/v2", data, &second).ok());
  EXPECT_EQ(second.transferred_share_bytes, 0u);
  EXPECT_EQ(second.intra_duplicate_shares, second.num_secrets * kN);
}

TEST_F(UploadEquivalenceTest, StreamingUploadFailsCleanlyWhenCloudDisconnected) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options());
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
