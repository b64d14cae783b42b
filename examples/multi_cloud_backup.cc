// The paper's headline scenario end to end: an organization backs up user
// data across four clouds through CDStore servers, with two-stage dedup,
// a cloud outage during restore, and a repair of the lost cloud.
//
//   ./examples/multi_cloud_backup
#include <cstdio>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/trace/synthetic.h"
#include "src/util/fs_util.h"
#include "src/util/stats.h"

using namespace cdstore;

int main() {
  std::printf("CDStore multi-cloud backup walkthrough (n=4, k=3)\n");
  std::printf("=================================================\n\n");

  TempDir dir("example");
  std::vector<std::unique_ptr<MemBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;
  std::vector<Transport*> ptrs;
  const char* cloud_names[] = {"Amazon", "Google", "Azure", "Rackspace"};
  for (int i = 0; i < 4; ++i) {
    backends.push_back(std::make_unique<MemBackend>());
    ServerOptions so;
    so.index_dir = dir.Sub("server-" + std::string(cloud_names[i]));
    auto server = CdstoreServer::Create(backends.back().get(), so);
    if (!server.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", server.status().ToString().c_str());
      return 1;
    }
    servers.push_back(std::move(server.value()));
    transports.push_back(std::make_unique<InProcTransport>(servers.back().get()));
    ptrs.push_back(transports.back().get());
    std::printf("CDStore server %d up (cloud: %s)\n", i, cloud_names[i]);
  }

  // Two users of the same organization; weekly FSL-like backups.
  auto opts = SyntheticDataset::FslDefaults(0.5);
  opts.num_users = 2;
  opts.num_weeks = 3;
  SyntheticDataset dataset(opts);

  ClientOptions co;
  CdstoreClient alice(ptrs, /*user=*/1, co);
  CdstoreClient bob(ptrs, /*user=*/2, co);

  struct NamedClient {
    CdstoreClient* client;
    const char* name;
    int dataset_user;
  };
  NamedClient named_clients[] = {{&alice, "alice", 0}, {&bob, "bob", 1}};

  // Each user runs their whole backup run through one BackupSession: the
  // encode workers and the four per-cloud uploader threads are set up once
  // and every weekly file streams through the same warm pipeline.
  std::printf("\n--- weekly backups (one session per user) ---\n");
  for (const NamedClient& nc : named_clients) {
    auto session = nc.client->OpenBackupSession();
    if (!session.ok()) {
      std::fprintf(stderr, "session failed: %s\n", session.status().ToString().c_str());
      return 1;
    }
    for (int week = 0; week < opts.num_weeks; ++week) {
      Bytes file = dataset.FileFor(nc.dataset_user, week);
      UploadStats stats;
      std::string path = "/backups/week" + std::to_string(week) + ".tar";
      if (!session.value()->Upload(path, file, &stats).ok()) {
        return 1;
      }
      double saving =
          100.0 * (1.0 - static_cast<double>(stats.transferred_share_bytes) /
                             static_cast<double>(stats.logical_share_bytes));
      std::printf("week %d %-6s: %7s logical, %4zu secrets, transferred %8s "
                  "(intra-user dedup saved %5.1f%%)\n",
                  week, nc.name, FormatSize(stats.logical_bytes).c_str(),
                  static_cast<size_t>(stats.num_secrets),
                  FormatSize(stats.transferred_share_bytes).c_str(), saving);
    }
    if (!session.value()->Close().ok()) {
      return 1;
    }
  }

  // Server-side view: inter-user dedup.
  Bytes frame = Dispatch(*servers[0], Encode(StatsRequest{}));
  StatsReply stats;
  (void)Decode(frame, &stats);
  std::printf("\nCloud 0 stores %llu unique shares, %s physical, %llu containers, "
              "%llu files\n",
              static_cast<unsigned long long>(stats.unique_shares),
              FormatSize(stats.stored_bytes).c_str(),
              static_cast<unsigned long long>(stats.container_count),
              static_cast<unsigned long long>(stats.file_count));

  // Restore with a cloud down.
  std::printf("\n--- disaster drill ---\n");
  transports[1]->set_connected(false);
  std::printf("Google is down. Restoring alice's week 2 backup from the rest...\n");
  auto restored = alice.Download("/backups/week2.tar");
  Bytes original = dataset.FileFor(0, 2);
  std::printf("Restore: %s (%s)\n",
              restored.ok() && restored.value() == original ? "OK" : "FAILED",
              restored.ok() ? FormatSize(restored.value().size()).c_str() : "-");
  transports[1]->set_connected(true);

  // Cloud 3 loses all data; repair re-populates it from the survivors.
  std::printf("\nRackspace loses its storage. Repairing alice's backups onto it...\n");
  servers[3].reset();  // old server flushes to its backend on shutdown
  backends[3] = std::make_unique<MemBackend>();
  ServerOptions so;
  so.index_dir = dir.Sub("server-Rackspace-rebuilt");
  auto rebuilt = CdstoreServer::Create(backends[3].get(), so);
  servers[3] = std::move(rebuilt.value());
  transports[3] = std::make_unique<InProcTransport>(servers[3].get());
  ptrs[3] = transports[3].get();
  CdstoreClient repair_client(ptrs, 1, co);
  for (int week = 0; week < opts.num_weeks; ++week) {
    std::string path = "/backups/week" + std::to_string(week) + ".tar";
    Status st = repair_client.RepairFile(path, /*target_cloud=*/3);
    std::printf("repair %s -> %s\n", path.c_str(), st.ToString().c_str());
  }
  transports[0]->set_connected(false);
  std::printf("Amazon now down; restore via the repaired Rackspace: ");
  auto again = repair_client.Download("/backups/week1.tar");
  std::printf("%s\n", again.ok() && again.value() == dataset.FileFor(0, 1) ? "OK" : "FAILED");
  return 0;
}
