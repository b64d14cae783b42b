// Namespace-scoped control plane, end to end: paginated path enumeration
// (ListPaths with resume cursors and clamped reply frames), cross-cloud
// name reconstruction from dispersed shares, the cross-path retention sweep
// (ApplyRetentionNamespace, bit-identical to the per-path loop while
// commit-locking O(pages)), point-in-time namespace restore, unresolvable
// paths reported rather than dropped, namespace totals in Stats, the one
// PathHead layout, and the automatic index-snapshot lifecycle after
// maintenance.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/crypto/sha256.h"
#include "src/dedup/file_index.h"
#include "src/kvstore/db.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/io.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

constexpr uint64_t kWeekMs = 7ull * 24 * 3600 * 1000;

// A small multi-cloud world. `tune` lets a test adjust ServerOptions (page
// clamps, auto snapshots) before the servers come up.
struct World {
  static constexpr int kN = 4;

  explicit World(TempDir* dir, const std::function<void(ServerOptions*)>& tune = {}) {
    for (int i = 0; i < kN; ++i) {
      backends.push_back(std::make_unique<MemBackend>());
      ServerOptions so;
      so.index_dir = dir->Sub("ns_server" + std::to_string(reinterpret_cast<uintptr_t>(this)) +
                              "_" + std::to_string(i));
      so.container_capacity = 64 * 1024;
      if (tune) {
        tune(&so);
      }
      auto server = CdstoreServer::Create(backends.back().get(), so);
      CHECK(server.ok());
      servers.push_back(std::move(server.value()));
      transports.push_back(std::make_unique<InProcTransport>(servers.back().get()));
    }
  }

  std::vector<Transport*> Ptrs() {
    std::vector<Transport*> out;
    for (auto& t : transports) {
      out.push_back(t.get());
    }
    return out;
  }

  uint64_t TotalBackendBytes() const {
    uint64_t total = 0;
    for (const auto& b : backends) {
      total += b->total_bytes();
    }
    return total;
  }

  std::vector<std::unique_ptr<MemBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;
};

ClientOptions SmallClientOptions() {
  ClientOptions o;
  o.n = World::kN;
  o.k = 3;
  o.rabin.min_size = 512;
  o.rabin.avg_size = 2048;
  o.rabin.max_size = 8192;
  return o;
}

UploadFileOptions NewGen(uint64_t timestamp_ms) {
  UploadFileOptions o;
  o.mode = PutFileMode::kNewGeneration;
  o.timestamp_ms = timestamp_ms;
  return o;
}

Bytes TestContent(uint64_t seed, size_t size) {
  Rng rng(seed);
  Bytes out(size);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

StatsReply ServerStats(CdstoreServer* server) {
  Bytes frame = Dispatch(*server, Encode(StatsRequest{}));
  StatsReply stats;
  CHECK(Decode(frame, &stats).ok());
  return stats;
}

class NamespaceTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

// ---------------------------------------------------------- enumeration --

TEST_F(NamespaceTest, EmptyNamespaceListsEmpty) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());

  auto page = client.ListPathsPage(0, {});
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_TRUE(page.value().paths.empty());
  EXPECT_TRUE(page.value().next_cursor.empty());

  auto listing = client.ListPaths();
  ASSERT_TRUE(listing.ok()) << listing.status();
  EXPECT_TRUE(listing.value().entries.empty());
  EXPECT_EQ(listing.value().unnamed_paths, 0u);
}

TEST_F(NamespaceTest, ListPathsReconstructsNamesAcrossClouds) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  // Names with path separators, spaces, non-ASCII bytes, and one long
  // enough to span several dispersal words.
  std::vector<std::string> names = {
      "/home/alice/thesis.tex",
      "/var/backups/db dump (weekly).sql",
      "/home/bob/\xc3\xa9t\xc3\xa9-photos.tar",
      "/srv/" + std::string(100, 'x') + "/archive.bin",
  };
  std::map<std::string, Bytes> contents;
  for (size_t i = 0; i < names.size(); ++i) {
    contents[names[i]] = TestContent(100 + i, 24 * 1024 + i * 1111);
    UploadStats stats;
    ASSERT_TRUE(
        client.Upload(names[i], contents[names[i]], &stats, NewGen((i + 1) * kWeekMs)).ok());
  }

  auto listing = client.ListPaths();
  ASSERT_TRUE(listing.ok()) << listing.status();
  EXPECT_EQ(listing.value().unnamed_paths, 0u);
  ASSERT_EQ(listing.value().entries.size(), names.size());
  std::sort(names.begin(), names.end());
  for (size_t i = 0; i < names.size(); ++i) {
    const NamespaceEntry& e = listing.value().entries[i];
    EXPECT_EQ(e.path_name, names[i]);  // sorted by name
    EXPECT_EQ(e.path_id, client.PathIdOf(names[i]));
    EXPECT_EQ(e.latest_generation, 1u);
    EXPECT_EQ(e.generation_count, 1u);
    EXPECT_EQ(e.latest_logical_bytes, contents[names[i]].size());
    EXPECT_GT(e.latest_timestamp_ms, 0u);
  }
}

TEST_F(NamespaceTest, PaginationBoundedAndExactDivision) {
  // Server-side clamp at 4: no frame ever carries more, whatever is asked.
  World world(&dir_, [](ServerOptions* so) { so->list_paths_max_page = 4; });
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  constexpr int kPaths = 6;
  for (int i = 0; i < kPaths; ++i) {
    Bytes data = TestContent(i, 8 * 1024);
    ASSERT_TRUE(client.Upload("/data/file" + std::to_string(i), data, nullptr,
                              NewGen((i + 1) * kWeekMs))
                    .ok());
  }

  // max_entries exactly divides the path count: the final page is full and
  // its next_cursor must still report exhaustion (no phantom empty page
  // with entries, and no entry lost).
  for (uint32_t page_size : {2u, 3u}) {
    std::set<Bytes> seen;
    Bytes cursor;
    int pages = 0;
    while (true) {
      auto page = client.ListPathsPage(0, cursor, page_size);
      ASSERT_TRUE(page.ok()) << page.status();
      EXPECT_LE(page.value().paths.size(), page_size);
      for (const PathInfo& p : page.value().paths) {
        EXPECT_TRUE(seen.insert(p.path_id).second) << "duplicate entry across pages";
      }
      ++pages;
      cursor = page.value().next_cursor;
      if (cursor.empty()) {
        break;
      }
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kPaths));
    EXPECT_EQ(pages, kPaths / static_cast<int>(page_size) +
                         (kPaths % page_size == 0 ? 0 : 1));
  }

  // The clamp holds against an oversized ask and against the default.
  auto big = client.ListPathsPage(0, {}, 1000);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().paths.size(), 4u);
  EXPECT_FALSE(big.value().next_cursor.empty());
  auto dflt = client.ListPathsPage(0, {}, 0);
  ASSERT_TRUE(dflt.ok());
  EXPECT_EQ(dflt.value().paths.size(), 4u);
}

TEST_F(NamespaceTest, PaginationSurvivesDeletionBetweenPages) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  constexpr int kPaths = 8;
  std::map<Bytes, std::string> name_by_id;
  for (int i = 0; i < kPaths; ++i) {
    std::string name = "/churn/file" + std::to_string(i);
    Bytes data = TestContent(40 + i, 8 * 1024);
    ASSERT_TRUE(client.Upload(name, data, nullptr, NewGen(kWeekMs)).ok());
    name_by_id[client.PathIdOf(name)] = name;
  }

  // Walk the full hash order once to learn which paths land where.
  std::vector<Bytes> order;
  {
    Bytes cursor;
    while (true) {
      auto page = client.ListPathsPage(0, cursor, 3);
      ASSERT_TRUE(page.ok());
      for (const PathInfo& p : page.value().paths) {
        order.push_back(p.path_id);
      }
      cursor = page.value().next_cursor;
      if (cursor.empty()) {
        break;
      }
    }
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kPaths));

  // Fetch page 1, then delete one already-returned path (order[1]), the
  // CURSOR path itself (order[2], the last entry of page 1), and one
  // not-yet-returned path (order[5]) before resuming. The cursor is a key
  // position — resumption seeks strictly past it whether or not the key
  // still exists — so every survivor must appear exactly once and the
  // deleted not-yet-returned path must not.
  auto first = client.ListPathsPage(0, {}, 3);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().paths.size(), 3u);
  std::set<Bytes> seen;
  for (const PathInfo& p : first.value().paths) {
    seen.insert(p.path_id);
  }
  ASSERT_TRUE(client.DeleteFile(name_by_id[order[1]]).ok());
  ASSERT_TRUE(client.DeleteFile(name_by_id[order[2]]).ok());
  ASSERT_TRUE(client.DeleteFile(name_by_id[order[5]]).ok());

  Bytes cursor = first.value().next_cursor;
  while (!cursor.empty()) {
    auto page = client.ListPathsPage(0, cursor, 3);
    ASSERT_TRUE(page.ok());
    for (const PathInfo& p : page.value().paths) {
      EXPECT_TRUE(seen.insert(p.path_id).second) << "duplicate across pages";
    }
    cursor = page.value().next_cursor;
  }
  // order[1] and order[2] were returned before their deletion; order[5]
  // must be absent; every survivor is present exactly once.
  EXPECT_EQ(seen.count(order[5]), 0u);
  for (size_t i = 0; i < order.size(); ++i) {
    if (i != 5) {
      EXPECT_EQ(seen.count(order[i]), 1u) << "survivor skipped at hash position " << i;
    }
  }
}

// -------------------------------------------------------------- path head --

TEST_F(NamespaceTest, PathHeadStoresNameAndContinuesIdSequence) {
  auto db = Db::Open(dir_.Sub("head_db"), DbOptions{});
  ASSERT_TRUE(db.ok());
  FileIndex index(db.value().get());
  const UserId user = 7;
  const Bytes path_key = BytesOf("path-share");
  const Bytes path_hash = Sha256::Hash(path_key);
  const Bytes path_id = BytesOf("cross-cloud-id");
  PathNameInfo name;
  name.name_share = path_key;
  name.path_id = path_id;
  name.name_len = 17;

  // The FileIndex writers only stage; each step commits its batch as a
  // server RPC does.
  GenerationRecord rec;
  bool new_path = false;
  auto append = [&]() -> Result<GenerationRecord> {
    WriteBatch batch;
    ASSIGN_OR_RETURN(GenerationRecord stored, index.StageAppendGeneration(
                                                  user, path_hash, name, rec, &batch, &new_path));
    RETURN_IF_ERROR(db.value()->Write(batch));
    return stored;
  };
  auto remove = [&](uint64_t generation) -> Status {
    ASSIGN_OR_RETURN(std::vector<GenerationRecord> gens, index.ListGenerations(user, path_hash));
    std::vector<GenerationRecord> doomed, kept;
    for (const GenerationRecord& g : gens) {
      (g.generation_id == generation ? doomed : kept).push_back(g);
    }
    WriteBatch batch;
    RETURN_IF_ERROR(index.StageDeleteGenerations(user, path_hash, doomed, kept, &batch));
    return db.value()->Write(batch);
  };

  // Generations 1 and 2, then the latest is deleted: the head keeps
  // next_generation at 3 and the next append continues from it.
  ASSERT_TRUE(append().ok());
  EXPECT_TRUE(new_path);
  ASSERT_TRUE(append().ok());
  EXPECT_FALSE(new_path);
  ASSERT_TRUE(remove(2).ok());
  auto page = index.ScanPaths(user, {}, 16);
  ASSERT_TRUE(page.ok()) << page.status();
  ASSERT_EQ(page.value().entries.size(), 1u);
  EXPECT_EQ(page.value().entries[0].path_hash, path_hash);
  EXPECT_EQ(page.value().entries[0].head.next_generation, 3u);
  EXPECT_EQ(page.value().entries[0].head.latest_generation, 1u);
  auto stored = append();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().generation_id, 3u);

  // The head carries the namespace fields of the last write, and a delete
  // keeps them.
  ASSERT_TRUE(remove(1).ok());
  page = index.ScanPaths(user, {}, 16);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page.value().entries.size(), 1u);
  const PathHead& head = page.value().entries[0].head;
  EXPECT_EQ(head.path_id, path_id);
  EXPECT_EQ(head.name_share, path_key);
  EXPECT_EQ(head.name_len, 17u);
  EXPECT_EQ(head.generation_count, 1u);

  // Every write replaces the fields with the request's, empty ones included.
  PathNameInfo renamed;
  renamed.name_share = path_key;
  rec.generation_id = 3;
  WriteBatch batch;
  bool new_generation = true;
  ASSERT_TRUE(index
                  .StagePutGeneration(user, path_hash, renamed, rec, &batch, &new_path,
                                      &new_generation)
                  .ok());
  EXPECT_FALSE(new_generation);
  ASSERT_TRUE(db.value()->Write(batch).ok());
  page = index.ScanPaths(user, {}, 16);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page.value().entries[0].head.path_id.empty());
  EXPECT_EQ(page.value().entries[0].head.name_len, 0u);
  EXPECT_EQ(page.value().entries[0].head.generation_count, 1u);
}

TEST_F(NamespaceTest, PathHeadRejectsOtherLayouts) {
  PathHead head;
  head.next_generation = 9;
  head.latest_generation = 8;
  head.generation_count = 4;
  head.path_id = BytesOf("id");
  head.name_share = BytesOf("share");
  head.name_len = 5;
  Bytes bytes = head.Serialize();
  auto back = PathHead::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().next_generation, 9u);
  EXPECT_EQ(back.value().path_id, head.path_id);
  EXPECT_EQ(back.value().name_share, head.name_share);
  EXPECT_EQ(back.value().name_len, 5u);
  // Even a head with no namespace fields writes the full layout: counters,
  // tag, two empty length-prefixed fields, name_len.
  EXPECT_EQ(PathHead{}.Serialize().size(), 24u + 1 + 1 + 1 + 4);

  // The 24-byte counters-only record (next, latest, count).
  BufferWriter counters_only;
  counters_only.PutU64(3);
  counters_only.PutU64(2);
  counters_only.PutU64(1);
  EXPECT_EQ(PathHead::Deserialize(counters_only.data()).status().code(),
            StatusCode::kCorruption);
  // An unknown layout tag.
  Bytes bad_tag = bytes;
  bad_tag[24] = 2;
  EXPECT_EQ(PathHead::Deserialize(bad_tag).status().code(), StatusCode::kCorruption);
  // Trailing bytes after the last field.
  Bytes trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(PathHead::Deserialize(trailing).status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------- retention sweep --

TEST_F(NamespaceTest, NamespaceSweepMatchesPerPathRetentionExactly) {
  // Two identical deployments: A prunes with the per-path loop, B with one
  // ApplyRetentionNamespace sweep. Every observable outcome must match.
  World world_a(&dir_);
  World world_b(&dir_);
  CdstoreClient client_a(world_a.Ptrs(), 1, SmallClientOptions());
  CdstoreClient client_b(world_b.Ptrs(), 1, SmallClientOptions());

  constexpr int kPaths = 5;
  constexpr int kGens = 4;
  std::vector<std::string> names;
  for (int p = 0; p < kPaths; ++p) {
    names.push_back("/set/file" + std::to_string(p));
    for (int g = 0; g < kGens; ++g) {
      // Content shared across generations (dedup) with per-gen churn.
      Bytes data = TestContent(p, 16 * 1024);
      Bytes churn = TestContent(1000 + p * 10 + g, 4 * 1024);
      data.insert(data.end(), churn.begin(), churn.end());
      auto fopts = NewGen((g + 1) * kWeekMs + p);
      ASSERT_TRUE(client_a.Upload(names[p], data, nullptr, fopts).ok());
      ASSERT_TRUE(client_b.Upload(names[p], data, nullptr, fopts).ok());
    }
  }

  RetentionPolicy policy;
  policy.keep_last_n = 1;
  policy.keep_within_ms = 2 * kWeekMs;  // window keeps gens 3..4, count keeps 4
  policy.now_ms = (kGens + 1) * kWeekMs;

  std::map<Bytes, ApplyRetentionReply> per_path;
  uint64_t total_deleted = 0;
  for (const std::string& name : names) {
    auto reply = client_a.ApplyRetention(name, policy);
    ASSERT_TRUE(reply.ok()) << reply.status();
    total_deleted += reply.value().generations_deleted;
    per_path[client_a.PathIdOf(name)] = reply.value();
  }
  ASSERT_GT(total_deleted, 0u);

  auto sweep = client_b.ApplyRetentionNamespace(policy, /*page_size=*/2);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(sweep.value().paths_swept, static_cast<uint64_t>(kPaths));
  EXPECT_EQ(sweep.value().generations_deleted, total_deleted);
  EXPECT_EQ(sweep.value().paths_removed, 0u);
  // Commit-lock churn is O(pages): ceil(5/2) = 3 acquisitions, not 5.
  EXPECT_EQ(sweep.value().pages, 3u);
  ASSERT_EQ(sweep.value().per_path.size(), per_path.size());
  for (const PathRetentionResult& r : sweep.value().per_path) {
    auto it = per_path.find(r.path_id);
    ASSERT_NE(it, per_path.end());
    EXPECT_EQ(r.generations_deleted, it->second.generations_deleted);
    EXPECT_EQ(r.logical_bytes_deleted, it->second.logical_bytes_deleted);
    EXPECT_EQ(r.path_removed, 0u);
  }

  // Surviving generation sets are identical...
  for (const std::string& name : names) {
    auto va = client_a.ListVersions(name);
    auto vb = client_b.ListVersions(name);
    ASSERT_TRUE(va.ok() && vb.ok());
    ASSERT_EQ(va.value().size(), vb.value().size());
    for (size_t i = 0; i < va.value().size(); ++i) {
      EXPECT_EQ(va.value()[i].generation_id, vb.value()[i].generation_id);
      EXPECT_EQ(va.value()[i].logical_bytes, vb.value()[i].logical_bytes);
    }
    // ...and every survivor restores byte-identically across deployments.
    for (const VersionInfo& v : va.value()) {
      auto da = client_a.Download(name, nullptr, v.generation_id);
      auto db2 = client_b.Download(name, nullptr, v.generation_id);
      ASSERT_TRUE(da.ok() && db2.ok());
      EXPECT_EQ(da.value(), db2.value());
    }
  }

  // After GC both deployments hold the same backend bytes: the sweep
  // orphaned exactly the shares the per-path loop did.
  for (int i = 0; i < World::kN; ++i) {
    ASSERT_TRUE(world_a.servers[i]->CollectGarbage().ok());
    ASSERT_TRUE(world_b.servers[i]->CollectGarbage().ok());
    ASSERT_TRUE(world_a.servers[i]->Flush().ok());
    ASSERT_TRUE(world_b.servers[i]->Flush().ok());
  }
  EXPECT_EQ(world_a.TotalBackendBytes(), world_b.TotalBackendBytes());
}

TEST_F(NamespaceTest, NamespaceSweepCanEmptyPaths) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  // One path entirely outside the window, one inside.
  Bytes old_data = TestContent(1, 8 * 1024);
  Bytes new_data = TestContent(2, 8 * 1024);
  ASSERT_TRUE(client.Upload("/old", old_data, nullptr, NewGen(1 * kWeekMs)).ok());
  ASSERT_TRUE(client.Upload("/new", new_data, nullptr, NewGen(9 * kWeekMs)).ok());

  RetentionPolicy policy;
  policy.keep_within_ms = 2 * kWeekMs;
  policy.now_ms = 10 * kWeekMs;
  auto sweep = client.ApplyRetentionNamespace(policy);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(sweep.value().paths_swept, 2u);
  EXPECT_EQ(sweep.value().generations_deleted, 1u);
  EXPECT_EQ(sweep.value().paths_removed, 1u);
  ASSERT_EQ(sweep.value().per_path.size(), 1u);
  EXPECT_EQ(sweep.value().per_path[0].path_id, client.PathIdOf("/old"));
  EXPECT_EQ(sweep.value().per_path[0].path_removed, 1u);

  // The emptied path is gone from the namespace; the other remains whole.
  auto listing = client.ListPaths();
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing.value().entries.size(), 1u);
  EXPECT_EQ(listing.value().entries[0].path_name, "/new");
  auto restored = client.Download("/new", nullptr);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), new_data);
}

// ------------------------------------------------------ namespace restore --

TEST_F(NamespaceTest, RestoreNamespaceAsOfPointInTime) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());

  // Three paths with different histories around the as-of point T = 2w:
  //   /a: generations at 1w, 2w, 3w  -> restores gen 2 (the 2w snapshot)
  //   /b: generations at 1w, 3w      -> restores gen 1 (predates a later
  //                                     overwrite — the tricky case)
  //   /c: born at 2.5w               -> skipped (didn't exist at T)
  std::map<std::string, std::vector<Bytes>> gens;
  auto upload = [&](const std::string& name, uint64_t ts, uint64_t seed) {
    Bytes data = TestContent(seed, 20 * 1024);
    gens[name].push_back(data);
    ASSERT_TRUE(client.Upload(name, data, nullptr, NewGen(ts)).ok());
  };
  upload("/a", 1 * kWeekMs, 11);
  upload("/a", 2 * kWeekMs, 12);
  upload("/a", 3 * kWeekMs, 13);
  upload("/b", 1 * kWeekMs, 21);
  upload("/b", 3 * kWeekMs, 22);
  upload("/c", 2 * kWeekMs + kWeekMs / 2, 31);

  RestoreSelector as_of;
  as_of.as_of_ms = 2 * kWeekMs;
  std::map<std::string, Bytes> restored;
  auto factory = [&](const NamespaceEntry& e,
                     uint64_t gen) -> Result<std::unique_ptr<ByteSink>> {
    (void)gen;
    return std::unique_ptr<ByteSink>(new BufferByteSink(&restored[e.path_name]));
  };
  auto stats = client.RestoreNamespace(as_of, factory);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().files_restored, 2u);
  EXPECT_EQ(stats.value().files_skipped, 1u);
  EXPECT_EQ(stats.value().files_unnamed, 0u);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored["/a"], gens["/a"][1]);
  EXPECT_EQ(restored["/b"], gens["/b"][0]);
  EXPECT_EQ(stats.value().bytes_restored, gens["/a"][1].size() + gens["/b"][0].size());
  ASSERT_EQ(stats.value().restored.size(), 2u);
  EXPECT_EQ(stats.value().restored[0].path_name, "/a");
  EXPECT_EQ(stats.value().restored[0].generation, 2u);
  EXPECT_EQ(stats.value().restored[1].generation, 1u);

  // The namespace restore is byte-identical to individual generation-
  // selected downloads.
  auto a2 = client.Download("/a", nullptr, 2);
  auto b1 = client.Download("/b", nullptr, 1);
  ASSERT_TRUE(a2.ok() && b1.ok());
  EXPECT_EQ(restored["/a"], a2.value());
  EXPECT_EQ(restored["/b"], b1.value());

  // as_of = 0: everything restores at latest, byte-identical to
  // Download(path) with the default selector.
  restored.clear();
  auto latest = client.RestoreNamespace(RestoreSelector{}, factory);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest.value().files_restored, 3u);
  EXPECT_EQ(latest.value().files_skipped, 0u);
  for (const auto& [name, series] : gens) {
    auto direct = client.Download(name, nullptr);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(restored[name], direct.value()) << name;
    EXPECT_EQ(restored[name], series.back()) << name;
  }

  // A factory may skip paths (selective restore).
  restored.clear();
  auto selective = client.RestoreNamespace(
      RestoreSelector{}, [&](const NamespaceEntry& e, uint64_t gen) {
        return e.path_name == "/b"
                   ? factory(e, gen)
                   : Result<std::unique_ptr<ByteSink>>(std::unique_ptr<ByteSink>());
      });
  ASSERT_TRUE(selective.ok());
  EXPECT_EQ(selective.value().files_restored, 1u);
  EXPECT_EQ(selective.value().files_skipped, 2u);
  EXPECT_EQ(restored["/b"], gens["/b"].back());
}

TEST_F(NamespaceTest, PathMissingFromCloudsIsReportedUnnamed) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  std::map<std::string, Bytes> contents;
  for (const char* name : {"/keep/a", "/keep/b", "/half-deleted", "/keep/c"}) {
    contents[name] = TestContent(contents.size() + 40, 12 * 1024);
    ASSERT_TRUE(client.Upload(name, contents[name], nullptr, NewGen(kWeekMs)).ok());
  }

  // The delete reaches clouds 0 and 1 only: clouds 2 and 3 still list the
  // path, so the k = 3 clouds ListPaths reads (0, 1, 2) hold one name
  // share of it, too few to decode.
  world.transports[2]->set_connected(false);
  world.transports[3]->set_connected(false);
  EXPECT_FALSE(client.DeleteFile("/half-deleted").ok());
  world.transports[2]->set_connected(true);
  world.transports[3]->set_connected(true);

  auto listing = client.ListPaths();
  ASSERT_TRUE(listing.ok()) << listing.status();
  EXPECT_EQ(listing.value().unnamed_paths, 1u);
  ASSERT_EQ(listing.value().entries.size(), 3u);
  for (const NamespaceEntry& e : listing.value().entries) {
    EXPECT_NE(e.path_name, "/half-deleted");
  }

  std::map<std::string, Bytes> restored;
  auto stats = client.RestoreNamespace(
      RestoreSelector{},
      [&](const NamespaceEntry& e, uint64_t) -> Result<std::unique_ptr<ByteSink>> {
        return std::unique_ptr<ByteSink>(new BufferByteSink(&restored[e.path_name]));
      });
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().files_unnamed, 1u);
  EXPECT_EQ(stats.value().files_restored, 3u);
  ASSERT_EQ(restored.size(), 3u);
  for (const auto& [name, bytes] : restored) {
    EXPECT_EQ(bytes, contents[name]) << name;
  }
}

// ----------------------------------------------------------- stats totals --

TEST_F(NamespaceTest, StatsCarryNamespaceTotals) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  for (int p = 0; p < 3; ++p) {
    for (int g = 0; g < 2; ++g) {
      Bytes data = TestContent(p * 10 + g, 8 * 1024);
      ASSERT_TRUE(client.Upload("/stats/file" + std::to_string(p), data, nullptr,
                                NewGen((g + 1) * kWeekMs))
                      .ok());
    }
  }
  StatsReply stats = ServerStats(world.servers[0].get());
  EXPECT_EQ(stats.file_count, 3u);
  EXPECT_EQ(stats.generation_count, 6u);

  // Pruning and whole-path deletion move both totals.
  RetentionPolicy policy;
  policy.keep_last_n = 1;
  ASSERT_TRUE(client.ApplyRetentionNamespace(policy).ok());
  ASSERT_TRUE(client.DeleteFile("/stats/file0").ok());
  stats = ServerStats(world.servers[0].get());
  EXPECT_EQ(stats.file_count, 2u);
  EXPECT_EQ(stats.generation_count, 2u);

  // The totals survive a server restart (persisted with the meta record).
  (void)world.servers[0]->Flush();
  MemBackend* backend = world.backends[0].get();
  std::string index_dir;
  {
    // Recreate server 0 over the same backend + index dir.
    auto stats_before = ServerStats(world.servers[0].get());
    world.transports[0].reset();
    index_dir = dir_.Sub("ns_server" + std::to_string(reinterpret_cast<uintptr_t>(&world)) +
                         "_0");
    world.servers[0].reset();
    ServerOptions so;
    so.index_dir = index_dir;
    so.container_capacity = 64 * 1024;
    auto reopened = CdstoreServer::Create(backend, so);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto stats_after = ServerStats(reopened.value().get());
    EXPECT_EQ(stats_after.file_count, stats_before.file_count);
    EXPECT_EQ(stats_after.generation_count, stats_before.generation_count);
    world.servers[0] = std::move(reopened.value());
    world.transports[0] = std::make_unique<InProcTransport>(world.servers[0].get());
  }
}

// ------------------------------------------------------ snapshot lifecycle --

TEST_F(NamespaceTest, AutoSnapshotScheduledAndPrunedAfterMaintenance) {
  World world(&dir_, [](ServerOptions* so) {
    so->auto_index_snapshot = true;
    so->snapshot_keep_last = 2;
  });
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  for (int g = 0; g < 5; ++g) {
    Bytes data = TestContent(g, 8 * 1024);
    ASSERT_TRUE(client.Upload("/snap/file", data, nullptr, NewGen((g + 1) * kWeekMs)).ok());
  }

  // A sweep that prunes nothing schedules nothing.
  RetentionPolicy keep_all;
  keep_all.keep_last_n = 32;
  ASSERT_TRUE(client.ApplyRetentionNamespace(keep_all).ok());
  auto snaps = world.servers[0]->ListAutoSnapshots();
  ASSERT_TRUE(snaps.ok());
  EXPECT_TRUE(snaps.value().empty());

  // Each pruning maintenance pass leaves one more snapshot, capped at
  // keep-last-2: the third pass drops the first snapshot object.
  std::vector<uint32_t> keeps = {4, 3, 2};
  std::vector<std::string> last;
  for (uint32_t keep : keeps) {
    RetentionPolicy policy;
    policy.keep_last_n = keep;
    auto sweep = client.ApplyRetentionNamespace(policy);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    EXPECT_EQ(sweep.value().generations_deleted, 1u);
    snaps = world.servers[0]->ListAutoSnapshots();
    ASSERT_TRUE(snaps.ok());
    if (!last.empty() && last.size() == 2) {
      // Oldest pruned, newest kept.
      EXPECT_EQ(snaps.value().size(), 2u);
      EXPECT_EQ(snaps.value()[0], last[1]);
    } else {
      EXPECT_EQ(snaps.value().size(), last.size() + 1);
    }
    last = snaps.value();
  }

  // The per-path RPC schedules snapshots too.
  RetentionPolicy one;
  one.keep_last_n = 1;
  ASSERT_TRUE(client.ApplyRetention("/snap/file", one).ok());
  auto after_per_path = world.servers[0]->ListAutoSnapshots();
  ASSERT_TRUE(after_per_path.ok());
  EXPECT_EQ(after_per_path.value().size(), 2u);
  EXPECT_NE(after_per_path.value()[1], last[1]);  // a fresh snapshot appeared
}

// -------------------------------------------------- concurrency (TSAN) --

TEST_F(NamespaceTest, ConcurrentUploadsDuringNamespaceSweep) {
  World world(&dir_);
  CdstoreClient client(world.Ptrs(), 1, SmallClientOptions());
  // Seed a few paths with prunable history.
  for (int p = 0; p < 4; ++p) {
    for (int g = 0; g < 3; ++g) {
      Bytes data = TestContent(p * 100 + g, 12 * 1024);
      ASSERT_TRUE(client.Upload("/tsan/file" + std::to_string(p), data, nullptr,
                                NewGen((g + 1) * kWeekMs))
                      .ok());
    }
  }

  // Writer: a second client keeps appending fresh generations to its own
  // paths while sweeps and listings run concurrently; the sweep loop spins
  // until every write has landed, so the two sides genuinely overlap. The
  // sweep releases the commit lock between pages, so uploads keep
  // committing mid-sweep.
  constexpr int kWriterFiles = 9;
  std::atomic<int> writer_files{0};
  std::thread writer([&]() {
    CdstoreClient w(world.Ptrs(), 1, SmallClientOptions());
    for (int i = 0; i < kWriterFiles; ++i) {
      Bytes data = TestContent(9000 + i, 12 * 1024);
      Status st = w.Upload("/tsan/writer" + std::to_string(i % 3), data, nullptr,
                           NewGen((10 + i) * kWeekMs));
      ASSERT_TRUE(st.ok()) << st;
      ++writer_files;
    }
  });

  RetentionPolicy policy;
  policy.keep_last_n = 2;
  while (writer_files.load() < kWriterFiles) {
    auto sweep = client.ApplyRetentionNamespace(policy, /*page_size=*/2);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    auto listing = client.ListPaths();
    ASSERT_TRUE(listing.ok()) << listing.status();
    EXPECT_GE(listing.value().entries.size(), 4u);
  }
  writer.join();

  // Post-conditions: every path retains at most keep_last generations of
  // history older than its newest two, and everything still restores.
  RetentionPolicy final_policy;
  final_policy.keep_last_n = 1;
  auto final_sweep = client.ApplyRetentionNamespace(final_policy);
  ASSERT_TRUE(final_sweep.ok());
  auto listing = client.ListPaths();
  ASSERT_TRUE(listing.ok());
  for (const NamespaceEntry& e : listing.value().entries) {
    EXPECT_EQ(e.generation_count, 1u) << e.path_name;
    auto data = client.Download(e.path_name, nullptr);
    EXPECT_TRUE(data.ok()) << e.path_name << ": " << data.status();
  }
}

// -------------------------------------------------------- wire roundtrips --

TEST_F(NamespaceTest, WireRoundTrips) {
  ListPathsRequest lpq;
  lpq.user = 42;
  lpq.cursor = BytesOf("cursor-hash");
  lpq.max_entries = 128;
  ListPathsRequest lpq2;
  ASSERT_TRUE(Decode(Encode(lpq), &lpq2).ok());
  EXPECT_EQ(lpq2.user, 42u);
  EXPECT_EQ(lpq2.cursor, lpq.cursor);
  EXPECT_EQ(lpq2.max_entries, 128u);

  ListPathsReply lpr;
  PathInfo p;
  p.path_id = BytesOf("id");
  p.name_share = BytesOf("share");
  p.name_len = 9;
  p.latest_generation = 4;
  p.generation_count = 3;
  p.latest_timestamp_ms = 1234;
  p.latest_logical_bytes = 999;
  lpr.paths.push_back(p);
  lpr.next_cursor = BytesOf("next");
  ListPathsReply lpr2;
  ASSERT_TRUE(Decode(Encode(lpr), &lpr2).ok());
  ASSERT_EQ(lpr2.paths.size(), 1u);
  EXPECT_EQ(lpr2.paths[0].path_id, p.path_id);
  EXPECT_EQ(lpr2.paths[0].name_share, p.name_share);
  EXPECT_EQ(lpr2.paths[0].name_len, 9u);
  EXPECT_EQ(lpr2.paths[0].latest_generation, 4u);
  EXPECT_EQ(lpr2.paths[0].generation_count, 3u);
  EXPECT_EQ(lpr2.paths[0].latest_timestamp_ms, 1234u);
  EXPECT_EQ(lpr2.paths[0].latest_logical_bytes, 999u);
  EXPECT_EQ(lpr2.next_cursor, lpr.next_cursor);

  ApplyRetentionNamespaceRequest nq;
  nq.user = 7;
  nq.policy.keep_last_n = 2;
  nq.policy.keep_within_ms = 1000;
  nq.policy.now_ms = 5000;
  nq.page_size = 64;
  ApplyRetentionNamespaceRequest nq2;
  ASSERT_TRUE(Decode(Encode(nq), &nq2).ok());
  EXPECT_EQ(nq2.user, 7u);
  EXPECT_EQ(nq2.policy.keep_last_n, 2u);
  EXPECT_EQ(nq2.policy.keep_within_ms, 1000u);
  EXPECT_EQ(nq2.policy.now_ms, 5000u);
  EXPECT_EQ(nq2.page_size, 64u);

  ApplyRetentionNamespaceReply nr;
  nr.paths_swept = 10;
  nr.paths_removed = 1;
  nr.generations_deleted = 12;
  nr.shares_orphaned = 34;
  nr.logical_bytes_deleted = 5678;
  nr.pages = 3;
  PathRetentionResult prr;
  prr.path_id = BytesOf("pid");
  prr.generations_deleted = 2;
  prr.logical_bytes_deleted = 200;
  prr.path_removed = 1;
  nr.per_path.push_back(prr);
  ApplyRetentionNamespaceReply nr2;
  ASSERT_TRUE(Decode(Encode(nr), &nr2).ok());
  EXPECT_EQ(nr2.paths_swept, 10u);
  EXPECT_EQ(nr2.paths_removed, 1u);
  EXPECT_EQ(nr2.generations_deleted, 12u);
  EXPECT_EQ(nr2.shares_orphaned, 34u);
  EXPECT_EQ(nr2.logical_bytes_deleted, 5678u);
  EXPECT_EQ(nr2.pages, 3u);
  ASSERT_EQ(nr2.per_path.size(), 1u);
  EXPECT_EQ(nr2.per_path[0].path_id, prr.path_id);
  EXPECT_EQ(nr2.per_path[0].generations_deleted, 2u);
  EXPECT_EQ(nr2.per_path[0].logical_bytes_deleted, 200u);
  EXPECT_EQ(nr2.per_path[0].path_removed, 1u);

  PutFileRequest pf;
  pf.user = 3;
  pf.path_key = BytesOf("key");
  pf.path_id = BytesOf("path-id");
  pf.path_name_len = 12;
  pf.file_size = 100;
  PutFileRequest pf2;
  ASSERT_TRUE(Decode(Encode(pf), &pf2).ok());
  EXPECT_EQ(pf2.path_id, pf.path_id);
  EXPECT_EQ(pf2.path_name_len, 12u);

  StatsReply sr;
  sr.file_count = 4;
  sr.generation_count = 17;
  StatsReply sr2;
  ASSERT_TRUE(Decode(Encode(sr), &sr2).ok());
  EXPECT_EQ(sr2.generation_count, 17u);
}

}  // namespace
}  // namespace cdstore
