#include "harness.h"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "src/net/service.h"
#include "src/storage/backend.h"

namespace cdbench {

using cdstore::Bytes;
using cdstore::Status;

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool Ops::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Ops::Check(const Status& status, const std::string& what) {
  return Check(status.ok(), status.ok() ? what : what + ": " + status.ToString());
}

// ---------------------------------------------------------------- deployment

std::unique_ptr<Deployment> Deployment::Open(const std::string& root, bool traced, Ops& ops) {
  std::unique_ptr<Deployment> d(new Deployment(root, traced));
  for (int i = 0; i < kClouds; ++i) {
    std::string cloud_dir = root + "/cloud" + std::to_string(i);
    auto backend = cdstore::LocalDirBackend::Open(cloud_dir + "/objects");
    if (!ops.Check(backend.status(), "open backend " + cloud_dir)) {
      return nullptr;
    }
    if (traced) {
      d->backends_.push_back(std::make_unique<TracedBackend>(std::move(backend.value())));
    } else {
      d->backends_.push_back(std::move(backend.value()));
    }
    cdstore::ServerOptions so;
    so.index_dir = cloud_dir + "/index";
    so.auto_index_snapshot = true;  // as cdstore_cli runs its servers
    auto server = cdstore::CdstoreServer::Create(d->backends_.back().get(), so);
    if (!ops.Check(server.status(), "start server " + cloud_dir)) {
      return nullptr;
    }
    d->servers_.push_back(std::move(server.value()));
    cdstore::CdstoreServer* srv = d->servers_.back().get();
    if (traced) {
      d->inproc_.push_back(std::make_unique<cdstore::InProcTransport>(TimedHandler(srv)));
      d->wrappers_.push_back(
          std::make_unique<TracedTransport>(d->inproc_.back().get(), kAdminClient, nullptr));
      d->admin_.push_back(d->wrappers_.back().get());
    } else {
      d->inproc_.push_back(std::make_unique<cdstore::InProcTransport>(srv));
      d->admin_.push_back(d->inproc_.back().get());
    }
  }
  return d;
}

Deployment::~Deployment() {
  // Clients are gone by now; the servers' destructors seal what is open.
  wrappers_.clear();
  inproc_.clear();
  servers_.clear();
  backends_.clear();
}

std::vector<cdstore::Transport*> Deployment::ClientTransports(uint16_t client,
                                                              InsertLog* inserts) {
  std::vector<cdstore::Transport*> out;
  for (int i = 0; i < kClouds; ++i) {
    if (traced_) {
      wrappers_.push_back(std::make_unique<TracedTransport>(inproc_[i].get(), client,
                                                            i == 0 ? inserts : nullptr));
      out.push_back(wrappers_.back().get());
    } else {
      out.push_back(inproc_[i].get());
    }
  }
  return out;
}

Status Deployment::FlushAll() {
  for (auto& server : servers_) {
    Status st;
    if (traced_) {
      ScopedLayerSpan span(Layer::kServer, 0);  // kind 0: not an RPC
      st = server->Flush();
    } else {
      st = server->Flush();
    }
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

uint64_t Deployment::wire_bytes() const {
  uint64_t total = 0;
  for (const auto& t : inproc_) {
    total += t->bytes_sent() + t->bytes_received();
  }
  return total;
}

uint64_t Deployment::physical_share_bytes() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->physical_share_bytes();
  }
  return total;
}

uint64_t Deployment::CloudBytes(const std::string& sub, const std::string& prefix) const {
  uint64_t total = 0;
  for (int i = 0; i < kClouds; ++i) {
    total += DirBytes(root_ + "/cloud" + std::to_string(i) + "/" + sub, prefix);
  }
  return total;
}

// --------------------------------------------------------------------- round

Round::Round(std::string root, bool traced, Ops& ops,
             const cdstore::ClientOptions& client_options, int users)
    : root_(std::move(root)),
      traced_(traced),
      ops_(ops),
      client_options_(client_options),
      users_(users) {
  for (int u = 0; u < users_; ++u) {
    inserts_.push_back(std::make_unique<InsertLog>());
  }
}

bool Round::Open(bool fresh) {
  int64_t start = NowNs();
  dep_ = Deployment::Open(root_, traced_, ops_);
  if (dep_ == nullptr) {
    return false;
  }
  for (int u = 0; u < users_; ++u) {
    clients_.push_back(std::make_unique<cdstore::CdstoreClient>(
        dep_->ClientTransports(static_cast<uint16_t>(u), inserts_[u].get()),
        static_cast<cdstore::UserId>(u + 1), client_options_));
  }
  (fresh ? stats.fresh_open_s : stats.reopen_s)
      .push_back(static_cast<double>(NowNs() - start) * 1e-9);
  return true;
}

void Round::Close() {
  clients_.clear();
  dep_.reset();
}

void Round::AddBackupFile(double seconds, const cdstore::UploadStats& s) {
  cdstore::MutexLock lock(mu_);
  stats.file_backup_ms.push_back(seconds * 1e3);
  stats.backup_logical += s.logical_bytes;
  stats.logical_share_bytes += s.logical_share_bytes;
  stats.transferred_share_bytes += s.transferred_share_bytes;
}

void Round::AddRestoreFile(double seconds, uint64_t bytes) {
  cdstore::MutexLock lock(mu_);
  stats.restore_logical += bytes;
  stats.file_restore_ms.push_back(seconds * 1e3);
}

void Round::CollectGarbage() {
  for (int c = 0; c < kClouds; ++c) {
    cdstore::GcReply reply;
    ops_.Check(CallRpc(dep_->admin(c), cdstore::GcRequest{}, &reply),
               "Gc on cloud " + std::to_string(c));
  }
}

double OpTimer::Stop() {
  int64_t end = NowNs();
  if (round_.traced()) {
    RecordClientOp(client_, start_ns_, end);
  }
  return static_cast<double>(end - start_ns_) * 1e-9;
}

// --------------------------------------------------------------------- gates

void CheckNamespace(Round& round, uint64_t expected_generations) {
  Deployment& dep = round.deployment();
  Ops& ops = round.ops();
  // path id -> generation ids, per cloud.
  std::vector<std::map<Bytes, std::vector<uint64_t>>> gens(kClouds);
  for (int c = 0; c < kClouds; ++c) {
    uint64_t unique_sum = 0;
    uint64_t generations = 0;
    for (int u = 0; u < round.users(); ++u) {
      Bytes cursor;
      do {
        auto page = round.client(u).ListPathsPage(c, cursor);
        if (!ops.Check(page.status(), "ListPaths on cloud " + std::to_string(c))) {
          return;
        }
        for (const cdstore::PathInfo& p : page.value().paths) {
          cdstore::ListVersionsRequest req;
          req.user = round.client(u).user();
          req.path_key = p.name_share;  // a path head's name share is its path key
          cdstore::ListVersionsReply reply;
          Status st = CallRpc(dep.admin(c), req, &reply);
          if (!ops.Check(st, "ListVersions on cloud " + std::to_string(c))) {
            return;
          }
          auto& ids = gens[c][p.path_id];
          for (const cdstore::VersionInfo& v : reply.versions) {
            unique_sum += v.unique_bytes;
            ids.push_back(v.generation_id);
            ++generations;
          }
        }
        cursor = page.value().next_cursor;
      } while (!cursor.empty());
    }
    uint64_t physical = dep.server(c).physical_share_bytes();
    ops.Check(unique_sum == physical,
              "cloud " + std::to_string(c) + ": sum of unique_bytes " +
                  std::to_string(unique_sum) + " != physical_share_bytes " +
                  std::to_string(physical));
    ops.Check(generations == expected_generations,
              "cloud " + std::to_string(c) + ": " + std::to_string(generations) +
                  " generations, expected " + std::to_string(expected_generations));
  }
  for (int c = 1; c < kClouds; ++c) {
    ops.Check(gens[c] == gens[0],
              "generation ids of cloud " + std::to_string(c) + " differ from cloud 0");
  }
}

// ------------------------------------------------------------------- system

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec); !ec && it != fs::end(it);
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().filename().string().rfind(prefix, 0) == 0) {
      total += it->file_size(ec);
    }
  }
  return total;
}

uint64_t ProcWcharBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace cdbench
