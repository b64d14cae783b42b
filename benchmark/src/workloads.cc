#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "src/trace/synthetic.h"
#include "src/util/byte_sink.h"
#include "src/util/rng.h"

namespace cdbench {

using cdstore::Bytes;
using cdstore::Status;

namespace {

cdstore::UploadFileOptions NewGeneration(uint64_t week) {
  cdstore::UploadFileOptions o;
  o.mode = cdstore::PutFileMode::kNewGeneration;  // as cdstore_cli backs up
  o.timestamp_ms = week * kWeekMs;
  return o;
}

// Seeded random bytes, eight at a time.
void FillRandom(uint64_t seed, size_t size, Bytes* out) {
  out->resize(size);
  cdstore::Rng rng(seed);
  for (size_t i = 0; i < size; i += 8) {
    uint64_t v = rng.NextU64();
    std::memcpy(out->data() + i, &v, std::min<size_t>(8, size - i));
  }
}

// A SyntheticDataset preset whose bytes depend on the run seed: every
// segment is XORed with one seed-derived pad, so identical segments stay
// identical and the preset's dedup structure (which segments repeat, and
// where) is the same for every seed. Only the content changes, which keeps
// the dedup ratios, and the work they imply, from varying with the seed.
class SeededDataset {
 public:
  SeededDataset(const cdstore::SyntheticDatasetOptions& opts, uint64_t seed)
      : data_(opts), segment_(opts.segment_bytes) {
    FillRandom(seed, segment_, &pad_);
  }

  Bytes File(int user, int week) const {
    Bytes out = data_.FileFor(user, week);
    for (size_t off = 0; off < out.size(); off += segment_) {
      size_t n = std::min(segment_, out.size() - off);
      for (size_t j = 0; j < n; ++j) {
        out[off + j] ^= pad_[j];
      }
    }
    return out;
  }

 private:
  cdstore::SyntheticDataset data_;
  size_t segment_;
  Bytes pad_;
};

// One file through an open session as a timed client operation; returns
// its seconds, which a single-session caller adds to the backup phase.
double BackupFile(Round& r, cdstore::BackupSession& session, int user, const std::string& path,
                  const Bytes& data, uint64_t week) {
  cdstore::UploadStats stats;
  OpTimer timer(r, static_cast<uint16_t>(user));
  Status st = session.Upload(path, data, &stats, NewGeneration(week));
  double s = timer.Stop();
  if (r.ops().Check(st, "backup " + path) &&
      r.ops().Check(stats.generation_id == week,
                    path + " bound to generation " + std::to_string(stats.generation_id) +
                        ", expected " + std::to_string(week))) {
    r.AddBackupFile(s, stats);
  }
  return s;
}

// Restores one generation (0 = latest) into `out` as a client operation
// and returns its seconds. A timed restore is accounted to the round; the
// caller adds the seconds to its phase.
double RestoreFile(Round& r, int user, const std::string& path, uint64_t generation, Bytes* out,
                   bool timed = true) {
  out->clear();
  cdstore::BufferByteSink sink(out);
  OpTimer timer(r, static_cast<uint16_t>(user));
  Status st = r.client(user).Download(path, sink, nullptr, generation);
  double s = timer.Stop();
  if (r.ops().Check(st, "restore " + path) && timed) {
    r.AddRestoreFile(s, out->size());
  }
  return s;
}

void Verify(Round& r, const Bytes& restored, const Bytes& expected, const std::string& what) {
  r.ops().Check(restored == expected, what + " restored byte-identically");
}

// The generation ids ListVersions reports for `path`.
std::vector<uint64_t> GenerationIds(Round& r, int user, const std::string& path) {
  std::vector<uint64_t> ids;
  auto versions = r.client(user).ListVersions(path);
  if (r.ops().Check(versions.status(), "ListVersions " + path)) {
    for (const cdstore::VersionInfo& v : versions.value()) {
      ids.push_back(v.generation_id);
    }
  }
  return ids;
}

// `rm`: every generation of `path`.
void DeleteFile(Round& r, int user, const std::string& path) {
  OpTimer timer(r, static_cast<uint16_t>(user));
  Status st = r.client(user).DeleteFile(path);
  timer.Stop();
  r.ops().Check(st, "delete " + path);
}

void CheckDeleted(Round& r, int user, const std::string& path) {
  Bytes out;
  cdstore::BufferByteSink sink(&out);
  Status st = r.client(user).Download(path, sink);
  r.ops().Check(st.code() == cdstore::StatusCode::kNotFound,
                "deleted " + path + " is NotFound: " + st.ToString());
}

void ApplyRetention(Round& r, int user, const std::string& path, uint32_t keep_last,
                    uint64_t now_week) {
  cdstore::RetentionPolicy policy;
  policy.keep_last_n = keep_last;
  policy.now_ms = now_week * kWeekMs;
  OpTimer timer(r, static_cast<uint16_t>(user));
  auto reply = r.client(user).ApplyRetention(path, policy);
  timer.Stop();
  r.ops().Check(reply.status(), "ApplyRetention " + path);
}

// ------------------------------------------------------------ ingest-unique

// Seeded random files, no duplicates anywhere: every share is new.
class IngestUnique : public Workload {
 public:
  static constexpr int kFiles = 4;
  static constexpr size_t kFileBytes = 64 << 20;

  explicit IngestUnique(uint64_t seed) : seed_(seed) {}

  uint64_t expected_generations() const override { return kFiles; }

  void Backup(Round& r) override {
    auto session = r.client(0).OpenBackupSession();
    if (!r.ops().Check(session.status(), "open backup session")) {
      return;
    }
    Bytes data;
    for (int i = 0; i < kFiles; ++i) {
      FillRandom(Mix(seed_, i), kFileBytes, &data);
      r.stats.backup_s += BackupFile(r, *session.value(), 0, Path(i), data, 1);
    }
    r.ops().Check(session.value()->Close(), "close backup session");
  }

  void Restore(Round& r) override {
    Bytes out, expected;
    out.reserve(kFileBytes);
    for (int i = 0; i < kFiles; ++i) {
      r.stats.restore_s += RestoreFile(r, 0, Path(i), 0, &out);
      FillRandom(Mix(seed_, i), kFileBytes, &expected);
      Verify(r, out, expected, Path(i));
    }
  }

  // `rm` of the first half of the files, then GC.
  void Maintain(Round& r) override {
    for (int i = 0; i < kFiles / 2; ++i) {
      DeleteFile(r, 0, Path(i));
    }
    r.CollectGarbage();
  }

  void CheckRetained(Round& r) override {
    Bytes out, expected;
    RestoreFile(r, 0, Path(kFiles - 1), 0, &out, false);
    FillRandom(Mix(seed_, kFiles - 1), kFileBytes, &expected);
    Verify(r, out, expected, "after GC: " + Path(kFiles - 1));
    CheckDeleted(r, 0, Path(0));
  }

  std::vector<Bytes> ReplaySample(size_t max_bytes) const override {
    std::vector<Bytes> out(1);
    FillRandom(Mix(seed_, 0), std::min(max_bytes, kFileBytes), &out[0]);
    return out;
  }

 private:
  static std::string Path(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/ingest/file-%02d.bin", i);
    return buf;
  }

  uint64_t seed_;
};

// --------------------------------------------------------------- fsl-weekly

// One user's weekly home-directory snapshots (GenerationSeriesDefaults) as
// generations of one path through one warm session.
class FslWeekly : public Workload {
 public:
  static constexpr int kWeeks = 12;
  static constexpr size_t kWeekBytes = 24 << 20;
  static constexpr int kAsOfWeek = 6;
  static constexpr uint32_t kKeepLast = 4;

  explicit FslWeekly(uint64_t seed)
      : data_(Options(), Mix(seed, 1)),
        latest_(data_.File(0, kWeeks - 1)),
        as_of_(data_.File(0, kAsOfWeek - 1)) {}

  uint64_t expected_generations() const override { return kWeeks; }
  int restore_passes() const override { return 3; }

  void Backup(Round& r) override {
    auto session = r.client(0).OpenBackupSession();
    if (!r.ops().Check(session.status(), "open backup session")) {
      return;
    }
    for (int w = 0; w < kWeeks; ++w) {
      r.stats.backup_s += BackupFile(r, *session.value(), 0, kPath, data_.File(0, w), w + 1);
    }
    r.ops().Check(session.value()->Close(), "close backup session");
  }

  // The latest generation (scattered over every week's containers), then
  // the week-6 generation through an as-of namespace restore.
  void Restore(Round& r) override {
    Bytes out;
    r.stats.restore_s += RestoreFile(r, 0, kPath, 0, &out);
    Verify(r, out, latest_, "latest generation");

    uint64_t restored_gen = 0;
    auto factory = [&](const cdstore::NamespaceEntry&, uint64_t generation)
        -> cdstore::Result<std::unique_ptr<cdstore::ByteSink>> {
      restored_gen = generation;
      out.clear();
      return std::unique_ptr<cdstore::ByteSink>(new cdstore::BufferByteSink(&out));
    };
    cdstore::RestoreSelector selector;
    selector.as_of_ms = kAsOfWeek * kWeekMs;
    OpTimer timer(r, 0);
    auto result = r.client(0).RestoreNamespace(selector, factory);
    double s = timer.Stop();
    r.stats.restore_s += s;
    if (r.ops().Check(result.status(), "as-of restore") &&
        r.ops().Check(result.value().files_restored == 1 && restored_gen == kAsOfWeek,
                      "as-of restore picked generation " + std::to_string(restored_gen))) {
      r.AddRestoreFile(s, out.size());
      Verify(r, out, as_of_, "as-of generation");
    }
  }

  void Maintain(Round& r) override {
    ApplyRetention(r, 0, kPath, kKeepLast, kWeeks);
    r.CollectGarbage();
  }

  // Exactly the newest kKeepLast generations survive and restore.
  void CheckRetained(Round& r) override {
    std::vector<uint64_t> expected_ids;
    for (int g = kWeeks - kKeepLast + 1; g <= kWeeks; ++g) {
      expected_ids.push_back(g);
    }
    r.ops().Check(GenerationIds(r, 0, kPath) == expected_ids, "retained generation ids");
    Bytes out;
    for (int g : {kWeeks, kWeeks - static_cast<int>(kKeepLast) + 1}) {
      RestoreFile(r, 0, kPath, g, &out, false);
      Verify(r, out, data_.File(0, g - 1), "after GC: generation " + std::to_string(g));
    }
  }

  std::vector<Bytes> ReplaySample(size_t max_bytes) const override {
    Bytes week0 = data_.File(0, 0);
    week0.resize(std::min(max_bytes, week0.size()));
    return {std::move(week0)};
  }

 private:
  static constexpr const char* kPath = "/home/fsl-snapshot.tar";

  static cdstore::SyntheticDatasetOptions Options() {
    cdstore::SyntheticDatasetOptions o = cdstore::SyntheticDataset::GenerationSeriesDefaults();
    o.num_weeks = kWeeks;
    o.user_bytes = kWeekBytes;
    return o;
  }

  SeededDataset data_;
  // The restore phase's expected bytes, generated once per run.
  Bytes latest_;
  Bytes as_of_;
};

// ------------------------------------------------------------ vm-concurrent

// Four users' VM images (VmDefaults, fixed 4 KiB chunks) backed up week by
// week on four threads at once, with a barrier between weeks.
class VmConcurrent : public Workload {
 public:
  static constexpr int kUsers = 4;
  static constexpr int kWeeks = 5;
  static constexpr size_t kImageBytes = 16 << 20;
  static constexpr uint32_t kKeepLast = 2;
  // The user whose VM is removed in maintenance.
  static constexpr int kRemovedUser = kUsers - 1;

  explicit VmConcurrent(uint64_t seed) : data_(Options(), Mix(seed, 2)) {
    for (int u = 0; u < kUsers; ++u) {
      latest_.push_back(data_.File(u, kWeeks - 1));
    }
  }

  int users() const override { return kUsers; }
  uint64_t expected_generations() const override { return kUsers * kWeeks; }
  int restore_passes() const override { return 3; }

  cdstore::ClientOptions client_options() const override {
    cdstore::ClientOptions o;
    o.fixed_chunking = true;  // the paper's VM setting
    o.fixed_chunk_size = 4096;
    return o;
  }

  void Backup(Round& r) override {
    std::vector<int64_t> marks;  // barrier completions: start, end per week
    marks.reserve(2 * kWeeks);
    std::barrier sync(kUsers, [&marks]() noexcept { marks.push_back(NowNs()); });
    RunUsers([&](int u) {
      auto session = r.client(u).OpenBackupSession();
      bool open = r.ops().Check(session.status(), "open backup session");
      for (int w = 0; w < kWeeks; ++w) {
        Bytes image = data_.File(u, w);
        sync.arrive_and_wait();
        if (open) {
          BackupFile(r, *session.value(), u, Path(u), image, w + 1);
        }
        sync.arrive_and_wait();
      }
      if (open) {
        r.ops().Check(session.value()->Close(), "close backup session");
      }
    });
    for (size_t i = 0; i + 1 < marks.size(); i += 2) {
      r.stats.backup_s += static_cast<double>(marks[i + 1] - marks[i]) * 1e-9;
    }
  }

  void Restore(Round& r) override {
    std::vector<int64_t> marks;
    marks.reserve(2);
    std::barrier sync(kUsers, [&marks]() noexcept { marks.push_back(NowNs()); });
    std::vector<Bytes> out(kUsers);
    RunUsers([&](int u) {
      sync.arrive_and_wait();
      RestoreFile(r, u, Path(u), 0, &out[u]);
      sync.arrive_and_wait();
    });
    r.stats.restore_s += static_cast<double>(marks[1] - marks[0]) * 1e-9;
    for (int u = 0; u < kUsers; ++u) {
      Verify(r, out[u], latest_[u], Path(u));
    }
  }

  // Retention on every image but one, which is removed (`rm`), then GC.
  // Pruned weeks are mostly the master image the other users still hold,
  // so the removed VM's private blocks are what GC is sure to reclaim.
  void Maintain(Round& r) override {
    for (int u = 0; u < kUsers; ++u) {
      if (u == kRemovedUser) {
        DeleteFile(r, u, Path(u));
      } else {
        ApplyRetention(r, u, Path(u), kKeepLast, kWeeks);
      }
    }
    r.CollectGarbage();
  }

  void CheckRetained(Round& r) override {
    std::vector<uint64_t> expected_ids = {kWeeks - 1, kWeeks};
    Bytes out;
    for (int u = 0; u < kRemovedUser; ++u) {
      r.ops().Check(GenerationIds(r, u, Path(u)) == expected_ids,
                    Path(u) + " retained generation ids");
    }
    RestoreFile(r, 0, Path(0), 0, &out, false);
    Verify(r, out, latest_[0], "after GC: " + Path(0));
    RestoreFile(r, 0, Path(0), kWeeks - 1, &out, false);
    Verify(r, out, data_.File(0, kWeeks - 2), "after GC: " + Path(0) + " week 4");
    CheckDeleted(r, kRemovedUser, Path(kRemovedUser));
  }

  std::vector<Bytes> ReplaySample(size_t max_bytes) const override {
    Bytes image = data_.File(0, 0);
    image.resize(std::min(max_bytes, image.size()));
    return {std::move(image)};
  }

 private:
  static cdstore::SyntheticDatasetOptions Options() {
    cdstore::SyntheticDatasetOptions o = cdstore::SyntheticDataset::VmDefaults();
    o.num_users = kUsers;
    o.num_weeks = kWeeks;
    o.user_bytes = kImageBytes;
    return o;
  }

  static std::string Path(int u) { return "/vm/user-" + std::to_string(u) + ".img"; }

  template <class Fn>
  static void RunUsers(Fn&& fn) {
    std::vector<std::thread> threads;
    for (int u = 0; u < kUsers; ++u) {
      threads.emplace_back(fn, u);
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  SeededDataset data_;
  std::vector<Bytes> latest_;  // each user's latest image, generated once per run
};

// -------------------------------------------------------------- small-files

// Many small files: log-uniform 1-64 KiB, backed up twice (the second pass
// a new generation of every file, 5% of them changed), then restored as a
// whole namespace.
class SmallFiles : public Workload {
 public:
  static constexpr int kFiles = 2000;
  static constexpr int kChangedEvery = 20;  // 5%

  // File sizes and the changed set are the same for every seed (so the
  // per-file work is); the seed picks the content.
  explicit SmallFiles(uint64_t seed) : seed_(seed), sizes_(kFiles), changed_(kFiles, false) {
    cdstore::Rng rng(0x5F11E5);
    const double lo = std::log(1024.0), hi = std::log(65536.0);
    for (int i = 0; i < kFiles; ++i) {
      sizes_[i] = static_cast<size_t>(std::exp(lo + (hi - lo) * rng.NextDouble()));
      index_of_[Path(i)] = i;
    }
    // Exactly kFiles / kChangedEvery distinct files change (partial shuffle).
    std::vector<int> order(kFiles);
    for (int i = 0; i < kFiles; ++i) {
      order[i] = i;
    }
    for (int i = 0; i < kFiles / kChangedEvery; ++i) {
      std::swap(order[i], order[i + rng.Uniform(kFiles - i)]);
      changed_[order[i]] = true;
    }
  }

  uint64_t expected_generations() const override { return 2 * kFiles; }

  void Backup(Round& r) override {
    auto session = r.client(0).OpenBackupSession();
    if (!r.ops().Check(session.status(), "open backup session")) {
      return;
    }
    Bytes data;
    for (int pass = 1; pass <= 2; ++pass) {
      for (int i = 0; i < kFiles; ++i) {
        Content(i, pass == 2 && changed_[i] ? 2 : 1, &data);
        r.stats.backup_s += BackupFile(r, *session.value(), 0, Path(i), data, pass);
      }
    }
    r.ops().Check(session.value()->Close(), "close backup session");
  }

  void Restore(Round& r) override {
    std::vector<Bytes> restored(kFiles);
    auto factory = [&](const cdstore::NamespaceEntry& e,
                       uint64_t) -> cdstore::Result<std::unique_ptr<cdstore::ByteSink>> {
      auto it = index_of_.find(e.path_name);
      if (it == index_of_.end()) {
        return Status::NotFound("unexpected path " + e.path_name);
      }
      return std::unique_ptr<cdstore::ByteSink>(new TimedSink(r, &restored[it->second]));
    };
    OpTimer timer(r, 0);
    auto result = r.client(0).RestoreNamespace(cdstore::RestoreSelector{}, factory);
    r.stats.restore_s += timer.Stop();
    if (!r.ops().Check(result.status(), "namespace restore") ||
        !r.ops().Check(result.value().files_restored == kFiles,
                       "namespace restore covered " +
                           std::to_string(result.value().files_restored) + " files")) {
      return;
    }
    Bytes expected;
    for (int i = 0; i < kFiles; ++i) {
      Content(i, changed_[i] ? 2 : 1, &expected);
      Verify(r, restored[i], expected, Path(i));
    }
  }

  // cdstore_cli prune-all --keep=1, then GC.
  void Maintain(Round& r) override {
    cdstore::RetentionPolicy policy;
    policy.keep_last_n = 1;
    policy.now_ms = 2 * kWeekMs;
    OpTimer timer(r, 0);
    auto reply = r.client(0).ApplyRetentionNamespace(policy);
    timer.Stop();
    r.ops().Check(reply.status(), "ApplyRetentionNamespace");
    r.CollectGarbage();
  }

  // A sample of changed and unchanged files keeps exactly generation 2.
  void CheckRetained(Round& r) override {
    Bytes out, expected;
    int checked_changed = 0, checked_same = 0;
    for (int i = 0; i < kFiles && (checked_changed < 10 || checked_same < 10); ++i) {
      int& count = changed_[i] ? checked_changed : checked_same;
      if (count >= 10) {
        continue;
      }
      ++count;
      r.ops().Check(GenerationIds(r, 0, Path(i)) == std::vector<uint64_t>{2},
                    Path(i) + " keeps only generation 2");
      RestoreFile(r, 0, Path(i), 0, &out, false);
      Content(i, changed_[i] ? 2 : 1, &expected);
      Verify(r, out, expected, "after GC: " + Path(i));
    }
  }

  std::vector<Bytes> ReplaySample(size_t max_bytes) const override {
    std::vector<Bytes> out;
    size_t total = 0;
    for (int i = 0; i < kFiles && total < max_bytes; ++i) {
      out.emplace_back();
      Content(i, 1, &out.back());
      total += out.back().size();
    }
    return out;
  }

 private:
  // Collects one restored file and records its latency: the sink lives from
  // the factory call to the end of that file's download.
  class TimedSink : public cdstore::BufferByteSink {
   public:
    TimedSink(Round& r, Bytes* out) : BufferByteSink(out), r_(r), out_(out) {}
    TimedSink(const TimedSink&) = delete;
    TimedSink& operator=(const TimedSink&) = delete;
    ~TimedSink() override {
      double s = static_cast<double>(NowNs() - start_) * 1e-9;
      r_.AddRestoreFile(s, out_->size());
    }

   private:
    Round& r_;
    Bytes* out_;
    int64_t start_ = NowNs();
  };

  static std::string Path(int i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "/files/d%02d/f%05d.dat", i % 32, i);
    return buf;
  }

  void Content(int i, int version, Bytes* out) const {
    FillRandom(Mix(seed_, 100 + static_cast<uint64_t>(version) * kFiles + i), sizes_[i], out);
  }

  uint64_t seed_;
  std::vector<size_t> sizes_;
  std::vector<bool> changed_;
  std::unordered_map<std::string, int> index_of_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "ingest-unique") {
    return std::make_unique<IngestUnique>(seed);
  }
  if (name == "fsl-weekly") {
    return std::make_unique<FslWeekly>(seed);
  }
  if (name == "vm-concurrent") {
    return std::make_unique<VmConcurrent>(seed);
  }
  if (name == "small-files") {
    return std::make_unique<SmallFiles>(seed);
  }
  return nullptr;
}

}  // namespace cdbench
