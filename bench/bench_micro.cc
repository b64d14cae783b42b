// Microbenchmarks (google-benchmark) for the primitive substrates: SHA-256
// (whole messages, and block compression per kernel tier), AES-256 (block +
// CTR), GF(2^8) region ops per kernel tier and Reed-Solomon coding —
// the components whose costs explain the Figure 5 results — and the LSM
// point read behind every share-index lookup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/crypto/aes256.h"
#include "src/crypto/ctr.h"
#include "src/crypto/sha256.h"
#include "src/gf256/gf256.h"
#include "src/kvstore/db.h"
#include "src/rs/reed_solomon.h"
#include "src/util/fs_util.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data = Rng(1).RandomBytes(state.range(0));
  Bytes out(Sha256::kDigestSize);
  for (auto _ : state) {
    Sha256::Hash(data, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(Sha256::HasShaNi() ? "SHA-NI" : "portable");
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(8192)->Arg(65536);

void BM_Aes256EncryptBlocks(benchmark::State& state) {
  Bytes key = Rng(2).RandomBytes(32);
  Aes256 aes(key);
  Bytes in = Rng(3).RandomBytes(state.range(0));
  Bytes out(in.size());
  for (auto _ : state) {
    aes.EncryptBlocks(in.data(), out.data(), in.size() / 16);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(Aes256::HasAesni() ? "AES-NI" : "portable");
}
BENCHMARK(BM_Aes256EncryptBlocks)->Arg(8192)->Arg(65536);

void BM_Aes256Ctr(benchmark::State& state) {
  Bytes key = Rng(4).RandomBytes(32);
  Aes256 aes(key);
  Bytes buf(state.range(0));
  for (auto _ : state) {
    Aes256CtrKeystreamZeroIv(aes, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes256Ctr)->Arg(8192)->Arg(65536);

// Arg 1 picks the GF(256) region-multiply tier: 0 scalar split tables,
// 1 SSSE3 PSHUFB, 2 AVX2 VPSHUFB (Gf256AddMulRegion dispatches to the best
// one the CPU has).
void BM_GfAddMulRegion(benchmark::State& state) {
  static const char* const kTiers[] = {"scalar", "SSSE3", "AVX2"};
  const int tier = static_cast<int>(state.range(1));
  if ((tier == 1 && !internal::SimdAvailable()) || (tier == 2 && !internal::Avx2Available())) {
    state.SkipWithError("CPU lacks this GF(256) tier");
    return;
  }
  Rng rng(5);
  Bytes src = rng.RandomBytes(state.range(0));
  Bytes dst = rng.RandomBytes(state.range(0));
  const uint8_t c = 0x57;
  const auto& t = internal::GetGf256Tables();
  for (auto _ : state) {
    if (tier == 0) {
      Gf256AddMulRegionScalar(dst, src, c);
    } else if (tier == 1) {
      internal::AddMulRegionSsse3(dst.data(), src.data(), src.size(), t.split_lo[c],
                                  t.split_hi[c]);
    } else {
      internal::AddMulRegionAvx2(dst.data(), src.data(), src.size(), t.split_lo[c],
                                 t.split_hi[c]);
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(kTiers[tier]);
}
BENCHMARK(BM_GfAddMulRegion)->ArgsProduct({{4096, 65536}, {0, 1, 2}});

// SHA-256 block compression by tier (arg 1: 0 scalar, 1 SHA-NI) over a
// whole number of 64-byte blocks, without padding or finalization.
void BM_Sha256Blocks(benchmark::State& state) {
  const bool shani = state.range(1) == 1;
  if (shani && !internal::ShaNiAvailable()) {
    state.SkipWithError("CPU lacks SHA-NI");
    return;
  }
  Bytes msg = Rng(8).RandomBytes(state.range(0));
  const size_t blocks = msg.size() / Sha256::kBlockSize;
  uint32_t digest[8] = {};  // any chaining state costs the same
  for (auto _ : state) {
    if (shani) {
      internal::ShaNiProcessBlocks(digest, msg.data(), blocks);
    } else {
      internal::Sha256ProcessBlocksScalar(digest, msg.data(), blocks);
    }
    benchmark::DoNotOptimize(digest);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(shani ? "SHA-NI" : "scalar");
}
BENCHMARK(BM_Sha256Blocks)->ArgsProduct({{65536}, {0, 1}});

void BM_RsEncode(benchmark::State& state) {
  int n = 4, k = 3;
  ReedSolomon rs(n, k);
  Rng rng(6);
  std::vector<Bytes> data;
  for (int i = 0; i < k; ++i) {
    data.push_back(rng.RandomBytes(state.range(0)));
  }
  std::vector<Bytes> out;
  // The code is systematic: the first k shards must be the data itself.
  if (!rs.Encode(data, &out).ok() || !std::equal(data.begin(), data.end(), out.begin())) {
    state.SkipWithError("Encode failed");
    return;
  }
  for (auto _ : state) {
    (void)rs.Encode(data, &out);  // checked above; same inputs every iteration
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * k);
}
BENCHMARK(BM_RsEncode)->Arg(2730)->Arg(65536);  // 2730 ≈ 8KB secret / k

void BM_RsDecodeWithParity(benchmark::State& state) {
  int n = 4, k = 3;
  ReedSolomon rs(n, k);
  Rng rng(7);
  std::vector<Bytes> data;
  for (int i = 0; i < k; ++i) {
    data.push_back(rng.RandomBytes(state.range(0)));
  }
  std::vector<Bytes> all;
  if (!rs.Encode(data, &all).ok()) {
    state.SkipWithError("Encode failed");
    return;
  }
  std::vector<int> ids = {0, 2, 3};  // needs matrix inversion
  std::vector<Bytes> shards = {all[0], all[2], all[3]};
  std::vector<Bytes> out;
  if (!rs.Decode(ids, shards, &out).ok() || out != data) {
    state.SkipWithError("Decode did not reproduce the data shards");
    return;
  }
  for (auto _ : state) {
    (void)rs.Decode(ids, shards, &out);  // checked above; same inputs every iteration
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * k);
}
BENCHMARK(BM_RsDecodeWithParity)->Arg(2730);

// A Db shaped like a server's share index: 100k records with 33-byte keys
// ('S' + a 32-byte fingerprint) and 32-byte values compacted into one
// SSTable, plus 1k more left in the memtable. Built once, on first use.
class ShareIndexDb {
 public:
  static ShareIndexDb& Get() {
    static ShareIndexDb instance;
    return instance;
  }

  Db* db() { return db_.get(); }
  const std::vector<Bytes>& sst_keys() const { return sst_keys_; }
  const std::vector<Bytes>& mem_keys() const { return mem_keys_; }
  const std::vector<Bytes>& absent_keys() const { return absent_keys_; }

 private:
  ShareIndexDb() {
    auto db = Db::Open(dir_.Sub("db"), DbOptions());
    CHECK_OK(db.status());
    db_ = std::move(db.value());
    Rng rng(21);
    auto make_key = [&rng] {
      Bytes k = rng.RandomBytes(33);
      k[0] = 'S';
      return k;
    };
    WriteBatch batch;
    for (int i = 0; i < 100000; ++i) {
      sst_keys_.push_back(make_key());
      batch.Put(sst_keys_.back(), rng.RandomBytes(32));
      if (batch.size() == 1000) {
        CHECK_OK(db_->Write(batch));
        batch.Clear();
      }
    }
    CHECK_OK(db_->Flush());
    CHECK_OK(db_->CompactAll());
    for (int i = 0; i < 1000; ++i) {
      mem_keys_.push_back(make_key());
      CHECK_OK(db_->Put(mem_keys_.back(), rng.RandomBytes(32)));
      absent_keys_.push_back(make_key());
    }
  }

  TempDir dir_;
  std::unique_ptr<Db> db_;
  std::vector<Bytes> sst_keys_;
  std::vector<Bytes> mem_keys_;
  std::vector<Bytes> absent_keys_;
};

// Db::Get on ShareIndexDb: arg 0 probes keys in the SSTable (block-cache
// hits once warm: the table fits the default 8 MiB cache), 1 keys in the
// memtable, 2 absent keys. Keys are probed in random order. p50_ns/p99_ns
// time single Gets.
void BM_DbGet(benchmark::State& state) {
  ShareIndexDb& idx = ShareIndexDb::Get();
  const std::vector<Bytes>& keys = state.range(0) == 0   ? idx.sst_keys()
                                   : state.range(0) == 1 ? idx.mem_keys()
                                                         : idx.absent_keys();
  const StatusCode expect = state.range(0) == 2 ? StatusCode::kNotFound : StatusCode::kOk;
  std::vector<int64_t> ns;
  Bytes value;
  size_t i = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    Status st = idx.db()->Get(keys[i], &value);
    ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    if (st.code() != expect) {
      state.SkipWithError("unexpected Get status");
      break;
    }
    benchmark::DoNotOptimize(value.data());
    if (++i == keys.size()) {
      i = 0;
    }
  }
  if (!ns.empty()) {
    std::sort(ns.begin(), ns.end());
    state.counters["p50_ns"] = static_cast<double>(ns[ns.size() / 2]);
    state.counters["p99_ns"] = static_cast<double>(ns[ns.size() * 99 / 100]);
  }
  static const char* const kLabels[] = {"sst-hit", "memtable-hit", "miss"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_DbGet)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace cdstore

BENCHMARK_MAIN();
