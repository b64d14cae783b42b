#include "replay.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "src/chunking/chunker.h"
#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/dispersal/aont_rs.h"
#include "src/kvstore/db.h"
#include "src/net/message.h"
#include "src/storage/backend.h"
#include "src/storage/container_store.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdbench {

using cdstore::Bytes;
using cdstore::ConstByteSpan;
using cdstore::Fingerprint;

namespace {

// Repeats of the cheap replays, so each times tens of milliseconds or more.
constexpr int kChunkPasses = 3;
constexpr int kCodecPasses = 4;
constexpr size_t kCodecBatchBytes = 1 << 20;
constexpr int kLookups = 20000;

double MibPerSecond(double bytes, int64_t ns) {
  return ns <= 0 ? 0 : bytes / kMiB / (static_cast<double>(ns) * 1e-9);
}

// Cloud 0's share of every chunk of the sample, with its fingerprint.
struct CloudShares {
  std::vector<Bytes> shares;
  std::vector<Fingerprint> fps;
  uint64_t bytes = 0;
};

std::unique_ptr<cdstore::Chunker> MakeChunker(const cdstore::ClientOptions& o) {
  if (o.fixed_chunking) {
    return std::make_unique<cdstore::FixedChunker>(o.fixed_chunk_size);
  }
  return std::make_unique<cdstore::RabinChunker>(o.rabin);
}

// Chunker, CAONT-RS encode/decode and share fingerprinting, one thread.
CloudShares ReplayCompute(const ReplayInput& in, Ops& ops, Metrics* out) {
  uint64_t sample_bytes = 0, chunk_count = 0;
  int64_t chunk_ns = 0;
  auto count = [&chunk_count](ConstByteSpan) { ++chunk_count; };
  for (int pass = 0; pass < kChunkPasses; ++pass) {
    for (const Bytes& file : in.files) {
      auto chunker = MakeChunker(in.client);
      int64_t t0 = NowNs();
      chunker->Update(file, count);
      chunker->Finish(count);
      chunk_ns += NowNs() - t0;
      sample_bytes += file.size();
    }
  }
  out->Add("chunking.mibps", MibPerSecond(static_cast<double>(sample_bytes), chunk_ns), "MiB/s");
  out->Add("chunking.mean_chunk_bytes",
           chunk_count == 0 ? 0 : static_cast<double>(sample_bytes) / chunk_count, "bytes");

  auto scheme = cdstore::MakeCaontRs(in.client.n, in.client.k, in.client.salt);
  std::vector<int> ids;
  for (int i = 0; i < in.client.k; ++i) {
    ids.push_back(i);
  }
  CloudShares cloud0;
  uint64_t secret_bytes = 0, share_bytes = 0;
  int64_t encode_ns = 0, fp_ns = 0, decode_ns = 0;
  bool round_trip_ok = true;
  std::vector<Bytes> shares;
  std::vector<ConstByteSpan> spans;
  Bytes decoded;
  for (const Bytes& file : in.files) {
    std::vector<Bytes> chunks = cdstore::ChunkBuffer(*MakeChunker(in.client), file);
    for (const Bytes& chunk : chunks) {
      int64_t t0 = NowNs();
      round_trip_ok &= scheme->Encode(chunk, &shares).ok();
      int64_t t1 = NowNs();
      Fingerprint fp0;
      for (size_t s = 0; s < shares.size(); ++s) {
        Fingerprint fp = cdstore::FingerprintOf(shares[s]);
        if (s == 0) {
          fp0 = std::move(fp);
        }
      }
      int64_t t2 = NowNs();
      spans.assign(shares.begin(), shares.begin() + in.client.k);
      round_trip_ok &= scheme->DecodeSpans(ids, spans, chunk.size(), &decoded).ok();
      int64_t t3 = NowNs();
      round_trip_ok &= decoded == chunk;
      encode_ns += t1 - t0;
      fp_ns += t2 - t1;
      decode_ns += t3 - t2;
      secret_bytes += chunk.size();
      for (const Bytes& s : shares) {
        share_bytes += s.size();
      }
      cloud0.bytes += shares[0].size();
      cloud0.shares.push_back(std::move(shares[0]));
      cloud0.fps.push_back(std::move(fp0));
    }
  }
  ops.Check(round_trip_ok, "CAONT-RS replay decodes every chunk of the sample");
  out->Add("dispersal.encode_mibps", MibPerSecond(static_cast<double>(secret_bytes), encode_ns),
           "MiB/s");
  out->Add("dispersal.decode_mibps", MibPerSecond(static_cast<double>(secret_bytes), decode_ns),
           "MiB/s");
  out->Add("fingerprint.mibps", MibPerSecond(static_cast<double>(share_bytes), fp_ns), "MiB/s");
  return cloud0;
}

// UploadShares Encode/DecodeView over 1 MiB batches of cloud 0's shares,
// and FpQuery Encode/Decode of the same batches' fingerprints.
void ReplayCodec(const CloudShares& cloud0, Ops& ops, Metrics* out) {
  std::vector<cdstore::UploadSharesRequest> uploads;
  std::vector<cdstore::FpQueryRequest> queries;
  size_t batch_bytes = kCodecBatchBytes;
  for (size_t i = 0; i < cloud0.shares.size(); ++i) {
    if (batch_bytes >= kCodecBatchBytes) {
      uploads.emplace_back().user = 1;
      queries.emplace_back().user = 1;
      batch_bytes = 0;
    }
    uploads.back().shares.push_back(cloud0.shares[i]);
    queries.back().fps.push_back(cloud0.fps[i]);
    batch_bytes += cloud0.shares[i].size();
  }
  int64_t encode_ns = 0, decode_ns = 0, fp_ns = 0;
  uint64_t fps = 0;
  bool ok = true;
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    for (size_t b = 0; b < uploads.size(); ++b) {
      int64_t t0 = NowNs();
      Bytes frame = cdstore::Encode(uploads[b]);
      int64_t t1 = NowNs();
      cdstore::UploadSharesRequestView view;
      ok &= cdstore::DecodeView(frame, &view).ok();
      int64_t t2 = NowNs();
      Bytes query = cdstore::Encode(queries[b]);
      cdstore::FpQueryRequest decoded;
      ok &= cdstore::Decode(query, &decoded).ok();
      int64_t t3 = NowNs();
      ok &= view.shares.size() == uploads[b].shares.size() &&
            decoded.fps.size() == queries[b].fps.size();
      encode_ns += t1 - t0;
      decode_ns += t2 - t1;
      fp_ns += t3 - t2;
      fps += queries[b].fps.size();
    }
  }
  ops.Check(ok, "wire codec replay round-trips every batch");
  double bytes = static_cast<double>(cloud0.bytes) * kCodecPasses;
  out->Add("codec.upload_shares_encode_mibps", MibPerSecond(bytes, encode_ns), "MiB/s");
  out->Add("codec.upload_shares_decode_mibps", MibPerSecond(bytes, decode_ns), "MiB/s");
  out->Add("codec.fpquery_ns_per_fp",
           fps == 0 ? 0 : static_cast<double>(fp_ns) / static_cast<double>(fps), "ns");
}

// ContainerStore Append (with seals to a LocalDirBackend), then a
// recipe-order Fetch through a fresh store with a cold cache.
void ReplayContainers(const CloudShares& cloud0, const std::string& dir, Ops& ops,
                      Metrics* out) {
  auto backend = cdstore::LocalDirBackend::Open(dir + "/containers");
  if (!ops.Check(backend.status(), "open replay backend")) {
    return;
  }
  std::vector<cdstore::BlobHandle> handles;
  bool ok = true;
  int64_t t0 = NowNs();
  {
    cdstore::ContainerStore store(backend.value().get(), cdstore::ContainerStoreOptions{});
    for (const Bytes& share : cloud0.shares) {
      auto handle = store.Append(1, share);
      ok &= handle.ok();
      handles.push_back(handle.ok() ? handle.value() : cdstore::BlobHandle{});
    }
    ok &= store.FlushAll().ok();
  }
  int64_t append_ns = NowNs() - t0;

  cdstore::ContainerStore cold(backend.value().get(), cdstore::ContainerStoreOptions{});
  int64_t fetch_ns = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    int64_t t1 = NowNs();
    auto blob = cold.Fetch(handles[i]);
    fetch_ns += NowNs() - t1;
    ok &= blob.ok() && blob.value() == cloud0.shares[i];
  }
  ops.Check(ok, "container replay fetches every appended share");
  double bytes = static_cast<double>(cloud0.bytes);
  out->Add("container.append_mibps", MibPerSecond(bytes, append_ns), "MiB/s");
  out->Add("container.fetch_mibps", MibPerSecond(bytes, fetch_ns), "MiB/s");
}

Fingerprint RandomFingerprint(cdstore::Rng& rng) {
  Fingerprint fp(cdstore::kFingerprintSize);
  rng.Fill(fp);
  return fp;
}

// The recorded share-index insert batches, one thread per session, into a
// Db with the server's options; then point lookups that hit and miss.
void ReplayKvstore(const ReplayInput& in, Ops& ops, Metrics* out) {
  auto db = cdstore::Db::Open(in.work_dir + "/index", cdstore::DbOptions{});
  if (!ops.Check(db.status(), "open replay index")) {
    return;
  }
  cdstore::ShareIndex index(db.value().get());
  size_t sessions = in.insert_batches.size();
  std::vector<std::vector<double>> write_us(sessions);
  std::vector<std::vector<Fingerprint>> inserted(sessions);
  std::vector<int> failures(sessions, 0);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s]() {
      cdstore::Rng rng(Mix(in.seed, 0x100 + s));
      uint64_t container = (s + 1) << 32;
      for (uint32_t count : in.insert_batches[s]) {
        std::vector<std::pair<Fingerprint, cdstore::ShareLocation>> entries;
        ++container;
        for (uint32_t i = 0; i < count; ++i) {
          cdstore::ShareLocation loc;
          loc.container_id = container;
          loc.index_in_container = i;
          loc.share_size = 2816;  // the CAONT-RS share of an 8 KiB secret at k = 3
          entries.emplace_back(RandomFingerprint(rng), loc);
          inserted[s].push_back(entries.back().first);
        }
        int64_t t0 = NowNs();
        failures[s] += index.InsertBatch(entries).ok() ? 0 : 1;
        write_us[s].push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<double> writes;
  std::vector<Fingerprint> all;
  int failed = 0;
  for (size_t s = 0; s < sessions; ++s) {
    writes.insert(writes.end(), write_us[s].begin(), write_us[s].end());
    all.insert(all.end(), inserted[s].begin(), inserted[s].end());
    failed += failures[s];
  }
  ops.Check(failed == 0, "kvstore replay commits every insert batch");

  cdstore::Rng rng(Mix(in.seed, 0x200));
  std::vector<double> hit_us, miss_us;
  bool ok = true;
  for (int i = 0; i < kLookups && !all.empty(); ++i) {
    const Fingerprint& fp = all[rng.Uniform(all.size())];
    int64_t t0 = NowNs();
    auto found = index.Lookup(fp);
    hit_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    ok &= found.ok() && found.value().has_value();
  }
  for (int i = 0; i < kLookups; ++i) {
    Fingerprint fp = RandomFingerprint(rng);
    int64_t t0 = NowNs();
    auto found = index.Lookup(fp);
    miss_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    ok &= found.ok() && !found.value().has_value();
  }
  ops.Check(ok, "kvstore replay lookups find exactly the inserted keys");
  double write_max_ms = writes.empty() ? 0 : *std::max_element(writes.begin(), writes.end()) * 1e-3;
  out->Add("kvstore.write_p99_us", Tail(writes), "us");
  out->Add("kvstore.write_max_ms", write_max_ms, "ms");
  out->Add("kvstore.get_hit_p99_us", Tail(hit_us), "us");
  out->Add("kvstore.get_miss_p99_us", Tail(miss_us), "us");
}

}  // namespace

void RunReplays(const ReplayInput& in, Ops& ops, Metrics* out) {
  (void)cdstore::RemoveDirRecursive(in.work_dir);  // absent on first use
  CloudShares cloud0 = ReplayCompute(in, ops, out);
  ReplayCodec(cloud0, ops, out);
  ReplayContainers(cloud0, in.work_dir, ops, out);
  ReplayKvstore(in, ops, out);
  (void)cdstore::RemoveDirRecursive(in.work_dir);  // scratch only
}

}  // namespace cdbench
