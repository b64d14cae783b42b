// Dedup-index scale bench: loads millions of fingerprints across
// thousands of synthetic users into a share index compacted to one
// SSTable, then measures the server's FpQuery path through the LSM —
// negative lookups (the common new-fingerprint case a backup upload is
// made of, answered by the memtable probe and the SSTable bloom) and hot
// positive lookups (popular cross-generation shares, answered from the
// block cache) — reporting per-request p50/p99 as BENCH_JSON lines.
//
// Flags: --fps=10000000 --users=4096 --queries=400000 --batch=64
//        --threads=4 --stripes=0 --hot=65536 --max_p99_us=0
//
// --max_p99_us > 0 makes the bench exit 1 when the negative or the
// hot-positive p99 exceeds it. The CI smoke runs --fps=200000; the full
// 10M-fingerprint run is the scale point.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/server.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/net/message.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/logging.h"

namespace cdstore {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic 32-byte fingerprint for index slot `i`: the load and query
// phases regenerate fingerprints on the fly instead of holding 10M x 32
// bytes in RAM. Not a real SHA-256, but splitmix output is uniform, which
// is all striping, bloom probes, and LSM ordering care about.
Fingerprint SyntheticFp(uint64_t i) {
  Fingerprint fp(kFingerprintSize);
  for (int w = 0; w < 4; ++w) {
    uint64_t v = SplitMix64(i * 4 + w + 1);
    std::memcpy(fp.data() + w * 8, &v, 8);
  }
  return fp;
}

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
};

LatencyStats Percentiles(std::vector<uint64_t>& ns) {
  LatencyStats out;
  if (ns.empty()) {
    return out;
  }
  std::sort(ns.begin(), ns.end());
  out.p50_us = static_cast<double>(ns[ns.size() / 2]) / 1000.0;
  out.p99_us = static_cast<double>(ns[std::min(ns.size() - 1, ns.size() * 99 / 100)]) / 1000.0;
  uint64_t total = 0;
  for (uint64_t v : ns) {
    total += v;
  }
  out.mean_us = static_cast<double>(total) / ns.size() / 1000.0;
  return out;
}

struct BenchConfig {
  uint64_t fps;
  uint64_t users;
  uint64_t queries;
  size_t batch;
  int threads;
  size_t stripes;
  uint64_t hot;
};

// Pre-encoded FpQuery frames: frame construction must not sit inside the
// timed region. `negative` picks fingerprints past the loaded range;
// positive frames draw from user 1's hot set (slots ≡ 0 mod users) so
// UserHasShare walks the full owner-check path.
std::vector<Bytes> EncodeFrames(const BenchConfig& cfg, uint64_t count, bool negative,
                                uint64_t seed) {
  std::vector<Bytes> frames;
  uint64_t n_frames = (count + cfg.batch - 1) / cfg.batch;
  frames.reserve(n_frames);
  uint64_t hot_slots = std::max<uint64_t>(1, std::min(cfg.hot, cfg.fps / cfg.users));
  uint64_t cursor = 0;
  for (uint64_t f = 0; f < n_frames; ++f) {
    FpQueryRequest req;
    req.user = 1;
    req.fps.reserve(cfg.batch);
    for (size_t b = 0; b < cfg.batch; ++b) {
      if (negative) {
        req.fps.push_back(SyntheticFp(cfg.fps + cursor++));
      } else {
        uint64_t j = SplitMix64(seed + cursor++) % hot_slots;
        req.fps.push_back(SyntheticFp(j * cfg.users));  // slot owned by user 1
      }
    }
    frames.push_back(Encode(req));
  }
  return frames;
}

// Fires `frames` at the server from cfg.threads threads (disjoint slices)
// and returns per-request latencies. Multi-threaded on purpose: concurrent
// sessions are what a lock or convoy on the read path would show up in,
// as a p99 far above the p50.
std::vector<uint64_t> RunQueries(CdstoreServer* server, const BenchConfig& cfg,
                                 const std::vector<Bytes>& frames, uint64_t* duplicates) {
  std::vector<std::vector<uint64_t>> lat(cfg.threads);
  std::vector<uint64_t> dup(cfg.threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t]() {
      lat[t].reserve(frames.size() / cfg.threads + 1);
      for (size_t f = t; f < frames.size(); f += cfg.threads) {
        auto t0 = Clock::now();
        Bytes reply_frame = Dispatch(*server, frames[f]);
        lat[t].push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()));
        FpQueryReply reply;
        CHECK(Decode(reply_frame, &reply).ok());
        for (uint8_t d : reply.duplicate) {
          dup[t] += d;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::vector<uint64_t> merged;
  for (auto& v : lat) {
    merged.insert(merged.end(), v.begin(), v.end());
  }
  if (duplicates != nullptr) {
    *duplicates = 0;
    for (uint64_t d : dup) {
      *duplicates += d;
    }
  }
  return merged;
}

int Run(int argc, char** argv) {
  BenchConfig cfg;
  cfg.fps = static_cast<uint64_t>(FlagValue(argc, argv, "fps", 10'000'000));
  cfg.users = std::max<uint64_t>(1, static_cast<uint64_t>(FlagValue(argc, argv, "users", 4096)));
  cfg.queries = static_cast<uint64_t>(FlagValue(argc, argv, "queries", 400'000));
  cfg.batch = std::max<size_t>(1, static_cast<size_t>(FlagValue(argc, argv, "batch", 64)));
  cfg.threads = std::max(1, static_cast<int>(FlagValue(argc, argv, "threads", 4)));
  cfg.stripes = static_cast<size_t>(FlagValue(argc, argv, "stripes", 0));
  cfg.hot = static_cast<uint64_t>(FlagValue(argc, argv, "hot", 65536));
  double max_p99_us = FlagValue(argc, argv, "max_p99_us", 0);

  TempDir dir("dedup_index");
  std::string index_dir = dir.Sub("index");

  PrintHeader("dedup index scale: load " + std::to_string(cfg.fps) + " fingerprints, " +
              std::to_string(cfg.users) + " users");

  // ---- load phase -------------------------------------------------------
  // Bulk-load tuning: a big write buffer and an unreachable compaction
  // trigger avoid O(n^2) rewrites mid-load; a Flush of the memtable and
  // one CompactAll at the end leave a single fully-bloomed SSTable and an
  // empty WAL (steady state after background compaction).
  {
    DbOptions load_opts;
    load_opts.write_buffer_size = 64 << 20;
    load_opts.compaction_trigger = 1 << 20;
    auto db = Db::Open(index_dir, load_opts);
    CHECK(db.ok());
    ShareIndex index(db.value().get());
    auto t0 = Clock::now();
    constexpr uint64_t kLoadBatch = 8192;
    std::vector<std::pair<Fingerprint, ShareIndexEntry>> batch;
    batch.reserve(kLoadBatch);
    for (uint64_t i = 0; i < cfg.fps; ++i) {
      ShareIndexEntry e;
      e.location = {i / 1000 + 1, static_cast<uint32_t>(i % 1000),
                    static_cast<uint32_t>(512 + i % 4096)};
      e.owners[1 + (i % cfg.users)] = 1;
      batch.emplace_back(SyntheticFp(i), std::move(e));
      if (batch.size() == kLoadBatch || i + 1 == cfg.fps) {
        CHECK(index.PutEntries(batch).ok());
        batch.clear();
      }
      if ((i + 1) % 2'000'000 == 0) {
        std::printf("  loaded %lluM fingerprints (%.1fs)\n",
                    static_cast<unsigned long long>((i + 1) / 1'000'000), SecondsSince(t0));
      }
    }
    double load_s = SecondsSince(t0);
    auto tc = Clock::now();
    CHECK(db.value()->Flush().ok());
    CHECK(db.value()->CompactAll().ok());
    double compact_s = SecondsSince(tc);
    std::printf("  load %.1fs (%.0f fps/s), final compaction %.1fs\n", load_s,
                cfg.fps / std::max(load_s, 1e-9), compact_s);
    std::printf("BENCH_JSON {\"bench\":\"dedup_index_load\",\"fps\":%llu,\"users\":%llu,"
                "\"load_s\":%.2f,\"compact_s\":%.2f}\n",
                static_cast<unsigned long long>(cfg.fps),
                static_cast<unsigned long long>(cfg.users), load_s, compact_s);
  }

  std::vector<Bytes> neg_frames = EncodeFrames(cfg, cfg.queries, /*negative=*/true, 7);
  std::vector<Bytes> pos_frames = EncodeFrames(cfg, cfg.queries, /*negative=*/false, 13);

  MemBackend backend;
  ServerOptions so;
  so.index_dir = index_dir;
  so.share_index_stripes = cfg.stripes;
  // The loaded LSM is already one compacted SSTable; keep the server's Db
  // from re-compacting it mid-measurement.
  so.db.compaction_trigger = 1 << 20;
  so.db.write_buffer_size = 64 << 20;
  auto server = CdstoreServer::Create(&backend, so);
  CHECK(server.ok());

  uint64_t neg_dups = 0;
  uint64_t pos_dups = 0;
  std::vector<uint64_t> lat = RunQueries(server.value().get(), cfg, neg_frames, &neg_dups);
  LatencyStats neg = Percentiles(lat);
  lat = RunQueries(server.value().get(), cfg, pos_frames, &pos_dups);
  LatencyStats pos = Percentiles(lat);
  std::printf("  negative p50 %.1fus p99 %.1fus | positive p50 %.1fus p99 %.1fus\n",
              neg.p50_us, neg.p99_us, pos.p50_us, pos.p99_us);

  // Correctness cross-check: the negative workload is genuinely negative,
  // and every hot fingerprint is one user 1 owns.
  CHECK_EQ(neg_dups, 0u);
  CHECK_EQ(pos_dups, static_cast<uint64_t>(pos_frames.size()) * cfg.batch);

  std::printf("BENCH_JSON {\"bench\":\"dedup_index_negative\",\"fps\":%llu,\"batch\":%zu,"
              "\"threads\":%d,\"p50_us\":%.1f,\"p99_us\":%.1f,\"mean_us\":%.1f}\n",
              static_cast<unsigned long long>(cfg.fps), cfg.batch, cfg.threads, neg.p50_us,
              neg.p99_us, neg.mean_us);
  std::printf("BENCH_JSON {\"bench\":\"dedup_index_positive\",\"fps\":%llu,\"hot\":%llu,"
              "\"threads\":%d,\"p50_us\":%.1f,\"p99_us\":%.1f,\"mean_us\":%.1f}\n",
              static_cast<unsigned long long>(cfg.fps),
              static_cast<unsigned long long>(cfg.hot), cfg.threads, pos.p50_us, pos.p99_us,
              pos.mean_us);

  if (max_p99_us > 0 && std::max(neg.p99_us, pos.p99_us) > max_p99_us) {
    std::fprintf(stderr, "FAIL: p99 (negative %.1fus, positive %.1fus) above %.1fus\n",
                 neg.p99_us, pos.p99_us, max_p99_us);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cdstore

int main(int argc, char** argv) { return cdstore::Run(argc, argv); }
