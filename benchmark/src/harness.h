// The deployment the benchmark drives and the per-round context workloads
// run in.
//
// The deployment is the one cdstore_cli runs: four in-process
// CdstoreServers behind InProcTransports, each on a LocalDirBackend plus an
// on-disk index (<root>/cloudN/objects, <root>/cloudN/index), with the
// CLI's automatic index snapshots on and the metric registry and tracer
// left null. No link is emulated. In a traced round the same objects are
// assembled with the benchmark's span wrappers (layers.h) at each seam.
#ifndef CDSTORE_BENCHMARK_HARNESS_H_
#define CDSTORE_BENCHMARK_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/util/sync.h"

namespace cdbench {

inline constexpr int kClouds = 4;
inline constexpr uint64_t kWeekMs = 7ull * 24 * 3600 * 1000;
inline constexpr double kMiB = 1024.0 * 1024.0;
// Client id of the benchmark's own RPCs (Gc, per-cloud ListVersions).
inline constexpr uint16_t kAdminClient = 0xFFFF;

// SplitMix64 finalizer: derives independent input streams from one seed.
uint64_t Mix(uint64_t seed, uint64_t tag);

// Operation accounting. File uploads, file restores, maintenance RPCs and
// verification checks each count as one attempted operation; a failure is
// counted and its reason printed to stderr. Thread-safe.
class Ops {
 public:
  bool Check(bool ok, const std::string& what);
  bool Check(const cdstore::Status& status, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

class Deployment {
 public:
  // Opens (or reopens) the four clouds under `root`. Returns null after
  // reporting the failure to `ops`.
  static std::unique_ptr<Deployment> Open(const std::string& root, bool traced, Ops& ops);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  // The transports one client uses, cloud i first. Traced: per-client net
  // wrappers; cloud 0's logs its UploadShares insert batches to `inserts`.
  std::vector<cdstore::Transport*> ClientTransports(uint16_t client, InsertLog* inserts);
  cdstore::Transport* admin(int cloud) { return admin_[cloud]; }
  cdstore::CdstoreServer& server(int cloud) { return *servers_[cloud]; }

  // Flush() on every server (a server span when traced).
  cdstore::Status FlushAll();
  // Σ InProcTransport bytes sent + received since the deployment opened.
  uint64_t wire_bytes() const;
  // Σ physical_share_bytes() over the clouds.
  uint64_t physical_share_bytes() const;
  // Bytes on disk under every cloud's objects / index directory; share
  // containers are the objects named "c..." (the ones GC rewrites).
  uint64_t backend_bytes() const { return CloudBytes("objects"); }
  uint64_t share_container_bytes() const { return CloudBytes("objects", "c"); }
  uint64_t index_bytes() const { return CloudBytes("index"); }

 private:
  Deployment(std::string root, bool traced) : root_(std::move(root)), traced_(traced) {}

  uint64_t CloudBytes(const std::string& sub, const std::string& prefix = "") const;

  std::string root_;
  bool traced_;
  // Destroyed bottom-up: wrappers, transports, servers, then backends.
  std::vector<std::unique_ptr<cdstore::StorageBackend>> backends_;
  std::vector<std::unique_ptr<cdstore::CdstoreServer>> servers_;
  std::vector<std::unique_ptr<cdstore::InProcTransport>> inproc_;
  std::vector<std::unique_ptr<TracedTransport>> wrappers_;
  std::vector<cdstore::Transport*> admin_;
};

// What one round measured. Times are seconds of the timed regions only;
// input generation and verification sit outside them.
struct RoundStats {
  // Deployment open + client construction, on empty directories and on
  // the populated store.
  std::vector<double> fresh_open_s;
  std::vector<double> reopen_s;
  double backup_s = 0;
  double restore_s = 0;
  double maintenance_s = 0;
  double phase_wall_s() const { return backup_s + restore_s + maintenance_s; }

  uint64_t backup_logical = 0;   // file bytes backed up
  uint64_t restore_logical = 0;  // file bytes restored in the timed restore
  uint64_t logical_share_bytes = 0;      // Σ UploadStats, all n shares
  uint64_t transferred_share_bytes = 0;  // Σ UploadStats, after intra-user dedup
  uint64_t physical_share_bytes = 0;     // Σ clouds after the backup flush
  uint64_t stored_bytes = 0;             // backend bytes after the backup flush
  uint64_t wire_bytes = 0;               // transport bytes during backup
  uint64_t index_bytes = 0;              // index dirs after the backup flush
  uint64_t backup_wchar = 0;             // /proc/self/io wchar during backup
  double peak_rss_mib = 0;               // the process's peak RSS so far

  std::vector<double> file_backup_ms;
  std::vector<double> file_restore_ms;
  std::vector<SpanRecord> spans;  // traced rounds only
};

// One round's context: the open deployment, one client per user, and the
// accounting the workload writes into.
class Round {
 public:
  Round(std::string root, bool traced, Ops& ops, const cdstore::ClientOptions& client_options,
        int users);

  // Opens the deployment and constructs the clients, timed into
  // stats.fresh_open_s or stats.reopen_s. False after a failure (already
  // counted in ops).
  bool Open(bool fresh);
  // Destroys clients and deployment (untimed).
  void Close();
  bool open() const { return dep_ != nullptr; }

  cdstore::CdstoreClient& client(int user) { return *clients_[user]; }
  Deployment& deployment() { return *dep_; }
  Ops& ops() { return ops_; }
  bool traced() const { return traced_; }
  int users() const { return users_; }
  const std::vector<std::unique_ptr<InsertLog>>& insert_logs() const { return inserts_; }

  // Per-file latency and byte accounting, thread-safe for the workload's
  // load threads. Phase times (stats.backup_s / restore_s) are added by the
  // workload itself: per file for one session, barrier to barrier for
  // concurrent sessions.
  void AddBackupFile(double seconds, const cdstore::UploadStats& stats);
  void AddRestoreFile(double seconds, uint64_t bytes);

  // The Gc RPC on every cloud, as cdstore_cli sends it.
  void CollectGarbage();

  RoundStats stats;

 private:
  std::string root_;
  bool traced_;
  Ops& ops_;
  cdstore::ClientOptions client_options_;
  int users_;
  std::vector<std::unique_ptr<InsertLog>> inserts_;  // per user, cloud 0
  std::unique_ptr<Deployment> dep_;
  std::vector<std::unique_ptr<cdstore::CdstoreClient>> clients_;
  cdstore::Mutex mu_;
};

// Times one client operation and, when traced, records its client span.
class OpTimer {
 public:
  OpTimer(Round& round, uint16_t client)
      : round_(round), client_(client), start_ns_(NowNs()) {}
  double Stop();

 private:
  Round& round_;
  uint16_t client_;
  int64_t start_ns_;
};

// One typed RPC through `transport`: encode, call, error-check, decode.
template <class Request, class Reply>
cdstore::Status CallRpc(cdstore::Transport* transport, const Request& request, Reply* reply) {
  auto frame = transport->Call(cdstore::Encode(request));
  if (!frame.ok()) {
    return frame.status();
  }
  if (cdstore::Status st = cdstore::DecodeIfError(frame.value()); !st.ok()) {
    return st;
  }
  return cdstore::Decode(frame.value(), reply);
}

// Correctness gates on the namespace, per cloud: Σ ListVersions
// unique_bytes over every user's paths equals physical_share_bytes(), the
// generation ids of each path agree across clouds, and the clouds hold
// `expected_generations` generations in all.
void CheckNamespace(Round& round, uint64_t expected_generations);

// Bytes of the regular files under `dir` whose names start with `prefix`.
uint64_t DirBytes(const std::string& dir, const std::string& prefix = "");
uint64_t ProcWcharBytes();
// The process's peak resident set so far.
double PeakRssMib();

}  // namespace cdbench

#endif  // CDSTORE_BENCHMARK_HARNESS_H_
