// cdstore_bench: one run of one workload of the CDStore benchmark.
//
//   cdstore_bench --workload=W --seed=S --seconds=T --work-dir=DIR [--traced]
//
// Runs rounds of the workload (workloads.h) for about T seconds and prints
// one JSON object on the last line of stdout: the end-to-end metrics
// (medians over the untraced rounds after a warm-up round), and with
// --traced the per-layer metrics. A traced run alternates untraced and
// traced rounds, so it also measures what the span wrappers cost, then runs
// the single-layer replays. Exits 1 when any operation or correctness check
// failed, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.h"
#include "metrics.h"
#include "replay.h"
#include "src/crypto/aes256.h"
#include "src/crypto/sha256.h"
#include "src/gf256/gf256.h"
#include "src/net/message.h"
#include "src/util/fs_util.h"
#include "workloads.h"

namespace cdbench {
namespace {

constexpr size_t kReplaySampleBytes = 32 << 20;
// Set-up is a few milliseconds, so each round opens the empty deployment,
// and reopens the populated one, this many times.
constexpr int kSetupSamples = 4;

struct RoundResult {
  RoundStats stats;
  bool warmup = false;  // checked, but left out of every metric
  bool traced = false;
  std::vector<std::vector<uint32_t>> insert_batches;  // per session, cloud 0
};

RoundResult RunRound(Workload& w, const std::string& dir, bool traced, Ops& ops) {
  RoundResult out;
  out.traced = traced;
  Round r(dir, traced, ops, w.client_options(), w.users());
  bool open = false;
  for (int i = 0; i < kSetupSamples; ++i) {
    r.Close();
    (void)cdstore::RemoveDirRecursive(dir);  // the previous sample's, if any
    open = r.Open(/*fresh=*/true);
  }
  if (open) {
    uint64_t wchar = ProcWcharBytes();
    SetPhase(Phase::kBackup);
    w.Backup(r);
    int64_t t0 = NowNs();
    ops.Check(r.deployment().FlushAll(), "flush after backup");
    r.stats.backup_s += static_cast<double>(NowNs() - t0) * 1e-9;
    SetPhase(Phase::kNone);
    r.stats.backup_wchar = ProcWcharBytes() - wchar;
    Deployment& d = r.deployment();
    r.stats.wire_bytes = d.wire_bytes();
    r.stats.stored_bytes = d.backend_bytes();
    r.stats.index_bytes = d.index_bytes();
    r.stats.physical_share_bytes = d.physical_share_bytes();
    CheckNamespace(r, w.expected_generations());
    for (int i = 1; i < kSetupSamples; ++i) {
      r.Close();
      r.Open(/*fresh=*/false);
    }
  }
  for (int pass = 0; pass < w.restore_passes(); ++pass) {
    r.Close();
    if (!r.Open(/*fresh=*/false)) {
      break;
    }
    SetPhase(Phase::kRestore);
    w.Restore(r);
    SetPhase(Phase::kNone);
  }
  if (r.open()) {
    uint64_t containers_before = r.deployment().share_container_bytes();
    uint64_t physical_before = r.deployment().physical_share_bytes();
    SetPhase(Phase::kMaintenance);
    int64_t t0 = NowNs();
    w.Maintain(r);
    r.stats.maintenance_s = static_cast<double>(NowNs() - t0) * 1e-9;
    SetPhase(Phase::kNone);
    // Index snapshots written by maintenance may outweigh what a small
    // prune frees, so the gate is on the share containers GC rewrites.
    uint64_t containers_after = r.deployment().share_container_bytes();
    ops.Check(containers_after < containers_before,
              "GC dropped share-container bytes from " + std::to_string(containers_before) +
                  " to " + std::to_string(containers_after));
    ops.Check(r.deployment().physical_share_bytes() < physical_before,
              "GC reduced physical share bytes");
    w.CheckRetained(r);
  }
  r.Close();
  r.stats.peak_rss_mib = PeakRssMib();
  out.stats = std::move(r.stats);
  if (traced) {
    out.stats.spans = DrainSpans();
    for (const auto& log : r.insert_logs()) {
      cdstore::MutexLock lock(log->mu);
      out.insert_batches.push_back(log->batches);
    }
  }
  (void)cdstore::RemoveDirRecursive(dir);  // the round's clouds are scratch
  return out;
}

void EndToEndMetrics(const std::vector<RoundResult>& rounds, Metrics* out) {
  std::vector<double> fresh, reopen, backup, restore, maintenance, stored, wire;
  for (const RoundResult& rr : rounds) {
    if (rr.warmup || rr.traced) {
      continue;
    }
    const RoundStats& s = rr.stats;
    double logical = static_cast<double>(s.backup_logical);
    fresh.insert(fresh.end(), s.fresh_open_s.begin(), s.fresh_open_s.end());
    reopen.insert(reopen.end(), s.reopen_s.begin(), s.reopen_s.end());
    backup.push_back(logical / kMiB / s.backup_s);
    restore.push_back(static_cast<double>(s.restore_logical) / kMiB / s.restore_s);
    maintenance.push_back(s.maintenance_s);
    stored.push_back(static_cast<double>(s.stored_bytes) / logical);
    wire.push_back(static_cast<double>(s.wire_bytes) / logical);
  }
  // A fresh open plus a reopen of the populated store, each the median of
  // the run's samples.
  out->Add("setup_s", Median(fresh) + Median(reopen), "s");
  out->Add("backup_mibps", Median(backup), "MiB/s");
  out->Add("restore_mibps", Median(restore), "MiB/s");
  // Maintenance runs once per round and, being write- and unlink-heavy,
  // is the phase host interference (disk flushes, neighbours) slows most
  // and least evenly; the fastest round repeats far better than the median.
  out->Add("maintenance_s", Min(maintenance), "s");
  out->Add("stored_bytes_per_logical", Median(stored), "ratio");
  out->Add("wire_bytes_per_logical", Median(wire), "ratio");
  // The warm-up round's peak, a fresh process through one round: later
  // rounds would also count heap pages the allocator kept from earlier ones.
  out->Add("peak_rss_mib", rounds.front().stats.peak_rss_mib, "MiB");
}

// Length of the part of [a, b) covered by `merged` (sorted, disjoint).
int64_t Covered(const std::vector<std::pair<int64_t, int64_t>>& merged, int64_t a, int64_t b) {
  auto it = std::lower_bound(merged.begin(), merged.end(), std::make_pair(a, a),
                             [](const auto& x, const auto& y) { return x.second < y.first; });
  int64_t total = 0;
  for (; it != merged.end() && it->first < b; ++it) {
    total += std::max<int64_t>(0, std::min(b, it->second) - std::max(a, it->first));
  }
  return total;
}

void LayerMetrics(const std::vector<RoundResult>& rounds, Metrics* out) {
  static const char* kLayerNames[kNumLayers] = {"client", "net", "server", "backend"};
  static const char* kPhaseNames[kNumPhases] = {"none", "backup", "restore", "maintenance"};
  constexpr cdstore::MsgType kRpcs[] = {
      cdstore::MsgType::kFpQueryRequest, cdstore::MsgType::kUploadSharesRequest,
      cdstore::MsgType::kPutFileRequest, cdstore::MsgType::kGetFileRequest,
      cdstore::MsgType::kGetSharesRequest};

  double self_ns[kNumPhases][kNumLayers] = {};
  double wall_ns[kNumPhases] = {};
  std::map<uint8_t, std::vector<double>> net_us, server_us;
  std::vector<double> put_ms, get_ms;
  double put_bytes = 0, get_bytes = 0, restore_get_bytes = 0, restore_share_bytes = 0;
  double backup_put_bytes = 0;
  double logical = 0, logical_share = 0, transferred = 0, physical = 0, index = 0, wchar = 0;
  std::vector<double> file_backup_ms, file_restore_ms;
  int traced = 0;

  for (const RoundResult& rr : rounds) {
    if (!rr.traced) {
      continue;
    }
    ++traced;
    const RoundStats& s = rr.stats;
    wall_ns[static_cast<int>(Phase::kBackup)] += s.backup_s * 1e9;
    wall_ns[static_cast<int>(Phase::kRestore)] += s.restore_s * 1e9;
    wall_ns[static_cast<int>(Phase::kMaintenance)] += s.maintenance_s * 1e9;
    logical += static_cast<double>(s.backup_logical);
    logical_share += static_cast<double>(s.logical_share_bytes);
    transferred += static_cast<double>(s.transferred_share_bytes);
    physical += static_cast<double>(s.physical_share_bytes);
    index += static_cast<double>(s.index_bytes);
    wchar += static_cast<double>(s.backup_wchar);
    file_backup_ms.insert(file_backup_ms.end(), s.file_backup_ms.begin(), s.file_backup_ms.end());
    file_restore_ms.insert(file_restore_ms.end(), s.file_restore_ms.begin(),
                           s.file_restore_ms.end());

    // Each client's RPC intervals, merged, for its self time.
    std::map<uint16_t, std::vector<std::pair<int64_t, int64_t>>> rpc_by_client;
    for (const SpanRecord& sp : s.spans) {
      if (sp.layer == Layer::kNet) {
        rpc_by_client[sp.client].emplace_back(sp.start_ns, sp.end_ns);
      }
    }
    for (auto& [client, iv] : rpc_by_client) {
      std::sort(iv.begin(), iv.end());
      std::vector<std::pair<int64_t, int64_t>> merged;
      for (const auto& x : iv) {
        if (!merged.empty() && x.first <= merged.back().second) {
          merged.back().second = std::max(merged.back().second, x.second);
        } else {
          merged.push_back(x);
        }
      }
      iv = std::move(merged);
    }

    for (const SpanRecord& sp : s.spans) {
      if (sp.phase == Phase::kNone) {
        continue;  // set-up and the benchmark's own checks
      }
      int64_t self = sp.self_ns;
      if (sp.layer == Layer::kClient) {
        auto it = rpc_by_client.find(sp.client);
        if (it != rpc_by_client.end()) {
          self -= Covered(it->second, sp.start_ns, sp.end_ns);
        }
      }
      self_ns[static_cast<int>(sp.phase)][static_cast<int>(sp.layer)] +=
          static_cast<double>(self);
      double dur_us = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3;
      if (sp.layer == Layer::kNet) {
        net_us[sp.kind].push_back(dur_us);
        if (sp.phase == Phase::kRestore &&
            sp.kind == static_cast<uint8_t>(cdstore::MsgType::kGetSharesRequest)) {
          restore_share_bytes += static_cast<double>(sp.bytes_out);
        }
      } else if (sp.layer == Layer::kServer) {
        server_us[sp.kind].push_back(dur_us);
      } else if (sp.layer == Layer::kBackend) {
        if (sp.kind == static_cast<uint8_t>(BackendOp::kPut)) {
          put_ms.push_back(dur_us * 1e-3);
          put_bytes += static_cast<double>(sp.bytes_in);
          if (sp.phase == Phase::kBackup) {
            backup_put_bytes += static_cast<double>(sp.bytes_in);
          }
        } else if (sp.kind == static_cast<uint8_t>(BackendOp::kGet)) {
          get_ms.push_back(dur_us * 1e-3);
          get_bytes += static_cast<double>(sp.bytes_out);
          if (sp.phase == Phase::kRestore) {
            restore_get_bytes += static_cast<double>(sp.bytes_out);
          }
        }
      }
    }
  }
  if (traced == 0) {
    return;
  }
  auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
  for (Phase p : {Phase::kBackup, Phase::kRestore, Phase::kMaintenance}) {
    int pi = static_cast<int>(p);
    for (int l = 0; l < kNumLayers; ++l) {
      out->Add(std::string(kPhaseNames[pi]) + "." + kLayerNames[l] + ".per_wall",
               ratio(self_ns[pi][l], wall_ns[pi]), "ratio");
    }
  }
  for (cdstore::MsgType type : kRpcs) {
    std::string name = cdstore::RpcName(type);
    const std::vector<double>& v = net_us[static_cast<uint8_t>(type)];
    out->Add("rpc." + name + ".count", static_cast<double>(v.size()) / traced, "count");
    out->Add("rpc." + name + ".p50_us", Median(v), "us");
    out->Add("rpc." + name + ".p99_us", Tail(v), "us");
  }
  for (cdstore::MsgType type : kRpcs) {
    out->Add("server." + std::string(cdstore::RpcName(type)) + ".p99_us",
             Tail(server_us[static_cast<uint8_t>(type)]), "us");
  }
  out->Add("backend.put.count", static_cast<double>(put_ms.size()) / traced, "count");
  out->Add("backend.put.bytes", put_bytes / traced, "bytes");
  out->Add("backend.put.p99_ms", Tail(put_ms), "ms");
  out->Add("backend.get.count", static_cast<double>(get_ms.size()) / traced, "count");
  out->Add("backend.get.bytes", get_bytes / traced, "bytes");
  out->Add("backend.get.p99_ms", Tail(get_ms), "ms");
  out->Add("backend.read_amplification", ratio(restore_get_bytes, restore_share_bytes), "ratio");
  out->Add("dedup.intra_dup_ratio", 1 - ratio(transferred, logical_share), "ratio");
  out->Add("dedup.inter_dup_ratio", 1 - ratio(physical, transferred), "ratio");
  out->Add("client.file_backup_p50_ms", Median(file_backup_ms), "ms");
  out->Add("client.file_backup_p99_ms", Tail(file_backup_ms), "ms");
  out->Add("client.file_restore_p99_ms", Tail(file_restore_ms), "ms");
  out->Add("kvstore.index_bytes_per_logical", ratio(index, logical), "ratio");
  out->Add("kvstore.write_bytes_per_logical",
           ratio(std::max(0.0, wchar - backup_put_bytes), logical), "ratio");
}

// Tracing overhead: median traced phase wall over median untraced.
double TraceOverheadPct(const std::vector<RoundResult>& rounds) {
  std::vector<double> traced, untraced;
  for (const RoundResult& rr : rounds) {
    if (!rr.warmup) {
      (rr.traced ? traced : untraced).push_back(rr.stats.phase_wall_s());
    }
  }
  double base = Median(untraced);
  return base == 0 ? 0 : 100.0 * (Median(traced) / base - 1.0);
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

std::string RoundsJson(const std::vector<RoundResult>& rounds) {
  std::string out = "[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundStats& s = rounds[i].stats;
    out += (i > 0 ? ", " : "");
    out += "{\"warmup\": " + std::string(rounds[i].warmup ? "true" : "false") +
           ", \"traced\": " + std::string(rounds[i].traced ? "true" : "false") +
           ", \"fresh_open_s\": " + JsonArray(s.fresh_open_s) +
           ", \"reopen_s\": " + JsonArray(s.reopen_s) + ", \"backup_s\": " +
           JsonNumber(s.backup_s) + ", \"restore_s\": " + JsonNumber(s.restore_s) +
           ", \"maintenance_s\": " + JsonNumber(s.maintenance_s) +
           ", \"backup_logical\": " + std::to_string(s.backup_logical) +
           ", \"restore_logical\": " + std::to_string(s.restore_logical) +
           ", \"peak_rss_mib\": " + JsonNumber(s.peak_rss_mib) + "}";
  }
  return out + "]";
}

std::string Flag(int argc, char** argv, const std::string& name, const std::string& fallback) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool BoolFlag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (("--" + name) == argv[i]) {
      return true;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  std::string name = Flag(argc, argv, "workload", "");
  std::string work_dir = Flag(argc, argv, "work-dir", "");
  uint64_t seed = std::strtoull(Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  double seconds = std::atof(Flag(argc, argv, "seconds", "").c_str());
  bool traced = BoolFlag(argc, argv, "traced");
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
  if (workload == nullptr || work_dir.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: cdstore_bench --workload=ingest-unique|fsl-weekly|vm-concurrent|"
                 "small-files --seed=S --seconds=T --work-dir=DIR [--traced]\n");
    return 2;
  }

  Ops ops;
  std::vector<RoundResult> rounds;
  // Round 0 warms the process up (allocator arenas, first-touch page
  // faults) and is only checked. Then rounds run while the next one is
  // expected to end within `seconds`; a traced run alternates untraced and
  // traced rounds and needs two of each.
  int64_t start = NowNs();
  for (int i = 0;; ++i) {
    bool traced_round = traced && i % 2 == 0 && i > 0;
    int64_t round_start = NowNs();
    rounds.push_back(RunRound(*workload, work_dir + "/round", traced_round, ops));
    rounds.back().warmup = i == 0;
    double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    double last = static_cast<double>(NowNs() - round_start) * 1e-9;
    int min_rounds = traced ? 5 : 2;
    if (ops.failed() > 0 || (i + 1 >= min_rounds && elapsed + last > seconds)) {
      break;
    }
  }

  Metrics e2e, layers;
  EndToEndMetrics(rounds, &e2e);
  if (traced) {
    LayerMetrics(rounds, &layers);
    ReplayInput replay;
    replay.files = workload->ReplaySample(kReplaySampleBytes);
    replay.client = workload->client_options();
    for (const RoundResult& rr : rounds) {
      if (rr.traced) {
        replay.insert_batches = rr.insert_batches;
        break;
      }
    }
    replay.work_dir = work_dir + "/replay";
    replay.seed = seed;
    RunReplays(replay, ops, &layers);
    layers.Add("trace.overhead_pct", TraceOverheadPct(rounds), "%");
  }

  uint64_t attempted = ops.attempted(), failed = ops.failed();
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"rounds\": %zu, "
      "\"host\": {\"nproc\": %u, \"gf256_simd_tier\": %d, \"sha_ni\": %s, \"aesni\": %s}, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"error_rate\": %s, "
      "\"metrics\": %s, \"layers\": %s, \"round_detail\": %s}\n",
      JsonString(name).c_str(), static_cast<unsigned long long>(seed),
      traced ? "true" : "false", rounds.size(), std::thread::hardware_concurrency(),
      cdstore::Gf256SimdTier(), cdstore::Sha256::HasShaNi() ? "true" : "false",
      cdstore::Aes256::HasAesni() ? "true" : "false", failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
      JsonNumber(attempted == 0 ? 0 : static_cast<double>(failed) / attempted).c_str(),
      e2e.Json().c_str(), layers.Json().c_str(), RoundsJson(rounds).c_str());
  (void)cdstore::RemoveDirRecursive(work_dir);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cdbench

int main(int argc, char** argv) { return cdbench::Main(argc, argv); }
