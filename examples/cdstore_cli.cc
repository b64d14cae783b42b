// cdstore_cli: a minimal operational CLI for a CDStore deployment — four
// clouds (local directories by default; any of them replaceable with an
// S3-style HTTP object store via --cloud=http://host:port/bucket, with
// --retry-attempts / --retry-backoff-ms / --retry-deadline-ms tuning the
// retry layer), real files in and out. State persists
// across invocations, so this behaves like a tiny *versioned* backup tool:
// re-backing-up a path appends a new generation (a weekly snapshot in the
// paper's workloads), old generations stay restorable, and retention-driven
// pruning plus GC reclaims their space. Backups of several files share one
// BackupSession (the encode workers and per-cloud uploaders persist across
// files) and restores stream straight to disk through a FileByteSink.
//
//   cdstore_cli <state_dir> backup   <file>... [--user=N]
//   cdstore_cli <state_dir> restore  <file> <output_path> [--gen=G] [--user=N]
//   cdstore_cli <state_dir> versions <file> [--user=N]
//   cdstore_cli <state_dir> prune    <file> --keep=N [--within-weeks=W] [--user=N]
//   cdstore_cli <state_dir> rm       <file> [--user=N]      (drops every generation)
//   cdstore_cli <state_dir> ls       [--user=N]             (whole namespace)
//   cdstore_cli <state_dir> prune-all --keep=N [--within-weeks=W] [--user=N]
//   cdstore_cli <state_dir> restore-all <out_dir> [--as-of=UNIX_MS] [--user=N]
//   cdstore_cli <state_dir> stats [--json]
//   cdstore_cli <state_dir> gc
//   cdstore_cli <state_dir> metrics [--json]
//
// Observability (src/obs/): every invocation wires one MetricRegistry
// through the servers, the client pipeline, and any HTTP retry layers.
// `metrics` scrapes it over the wire via the GetMetrics RPC; any command
// takes `--metrics` to dump the series it populated on exit, and
// `--serve-metrics-ms=MS [--serve-metrics-port=P]` to serve Prometheus
// text at GET /metrics for MS milliseconds before exiting.
//
// The namespace commands are the whole-backup-set operations: `ls`
// reconstructs every pathname from k clouds' dispersed name shares,
// `prune-all` runs one server-side retention sweep per cloud (commit-locked
// per page, not per path), and `restore-all` reproduces the namespace as of
// a point in time under <out_dir> (paths born after --as-of are skipped).
//
// Example:
//   ./examples/cdstore_cli /tmp/cd backup  /etc/hosts /etc/passwd
//   ./examples/cdstore_cli /tmp/cd backup  /etc/hosts       # generation 2
//   ./examples/cdstore_cli /tmp/cd ls
//   ./examples/cdstore_cli /tmp/cd versions /etc/hosts
//   ./examples/cdstore_cli /tmp/cd restore /etc/hosts /tmp/hosts.v1 --gen=1
//   ./examples/cdstore_cli /tmp/cd prune-all --keep=1
//   ./examples/cdstore_cli /tmp/cd restore-all /tmp/everything
//   ./examples/cdstore_cli /tmp/cd gc
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_http.h"
#include "src/obs/trace.h"
#include "src/storage/backend.h"
#include "src/storage/http_backend.h"
#include "src/util/byte_sink.h"
#include "src/util/fs_util.h"
#include "src/util/retry.h"
#include "src/util/stats.h"

using namespace cdstore;

namespace {

constexpr int kN = 4;
constexpr uint64_t kWeekMs = 7ull * 24 * 3600 * 1000;

struct Deployment {
  // Declared first so every metrics consumer below is destroyed before it.
  // One registry spans the whole deployment: servers, client, and HTTP
  // retry layers all feed it, `metrics` scrapes it over the wire.
  MetricRegistry registry;
  // One tracer spans the deployment the same way (created only with
  // --trace): client pipeline, servers, and HTTP backends all record into
  // it, so a dump shows one connected trace per request.
  std::unique_ptr<Tracer> tracer;
  ClientOptions client_options;  // metrics pre-wired to `registry`
  std::vector<std::unique_ptr<StorageBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;
  std::vector<Transport*> ptrs;
};

// Per-cloud object stores come from repeatable --cloud= flags: either a
// directory path or an http://host:port/bucket endpoint (an S3-style
// store, e.g. a real cloud gateway). Unnamed clouds default to
// <state_dir>/cloudN directories, so directory and HTTP clouds mix freely
// in one deployment. Indices always stay on the local disk (§5.6).
bool OpenDeployment(const std::string& state_dir, const std::vector<std::string>& clouds,
                    const RetryPolicy& retry, bool trace, Deployment* d) {
  d->client_options.metrics = &d->registry;
  if (trace) {
    TraceOptions topts;
    topts.metrics = &d->registry;
    d->tracer = std::make_unique<Tracer>(topts);
    d->client_options.tracer = d->tracer.get();
  }
  for (int i = 0; i < kN; ++i) {
    std::string cloud_dir = state_dir + "/cloud" + std::to_string(i);
    std::string location =
        static_cast<size_t>(i) < clouds.size() ? clouds[i] : cloud_dir;
    if (location.rfind("http://", 0) == 0) {
      HttpBackendOptions bo;
      bo.retry = retry;
      bo.retry.metrics = MakeRetryMetrics(&d->registry, "cloud" + std::to_string(i));
      bo.tracer = d->tracer.get();
      auto backend = HttpObjectBackend::Open(location, bo);
      if (!backend.ok()) {
        std::fprintf(stderr, "cannot open %s: %s\n", location.c_str(),
                     backend.status().ToString().c_str());
        return false;
      }
      d->backends.push_back(std::move(backend.value()));
    } else {
      auto backend = LocalDirBackend::Open(location + "/objects");
      if (!backend.ok()) {
        std::fprintf(stderr, "cannot open %s: %s\n", location.c_str(),
                     backend.status().ToString().c_str());
        return false;
      }
      d->backends.push_back(std::move(backend.value()));
    }
    ServerOptions so;
    so.index_dir = cloud_dir + "/index";
    // Operational deployment: maintenance (prune/gc) leaves fresh index
    // snapshots at the backend automatically, pruned keep-last-N.
    so.auto_index_snapshot = true;
    so.metrics = &d->registry;
    so.tracer = d->tracer.get();
    auto server = CdstoreServer::Create(d->backends.back().get(), so);
    if (!server.ok()) {
      std::fprintf(stderr, "cannot start server %d: %s\n", i,
                   server.status().ToString().c_str());
      return false;
    }
    d->servers.push_back(std::move(server.value()));
    d->transports.push_back(std::make_unique<InProcTransport>(d->servers.back().get()));
    d->ptrs.push_back(d->transports.back().get());
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cdstore_cli <state_dir> backup <file>... [--user=N]\n"
               "       cdstore_cli <state_dir> restore <file> <out_path> [--gen=G] [--user=N]\n"
               "       cdstore_cli <state_dir> versions <file> [--user=N]\n"
               "       cdstore_cli <state_dir> prune <file> --keep=N [--within-weeks=W] "
               "[--user=N]\n"
               "       cdstore_cli <state_dir> rm <file> [--user=N]\n"
               "       cdstore_cli <state_dir> ls [--user=N]\n"
               "       cdstore_cli <state_dir> prune-all --keep=N [--within-weeks=W] "
               "[--user=N]\n"
               "       cdstore_cli <state_dir> restore-all <out_dir> [--as-of=UNIX_MS] "
               "[--user=N]\n"
               "       cdstore_cli <state_dir> stats [--json]\n"
               "       cdstore_cli <state_dir> gc\n"
               "       cdstore_cli <state_dir> metrics [--json]\n"
               "       cdstore_cli <state_dir> trace [--chrome-json=FILE]\n"
               "\n"
               "observability (any command):\n"
               "       --metrics              print the metric series on exit\n"
               "       --serve-metrics-ms=MS  serve GET /metrics for MS ms on exit\n"
               "       --serve-metrics-port=P endpoint port (default: ephemeral)\n"
               "       --trace                trace requests; print the span tree on exit\n"
               "       --chrome-json=FILE     with --trace: also write a Chrome trace\n"
               "                              (chrome://tracing / Perfetto); '-' = stdout\n"
               "\n"
               "cloud placement (any command, repeatable, cloud 0 first):\n"
               "       --cloud=<dir> | --cloud=http://host:port/bucket\n"
               "       unnamed clouds default to <state_dir>/cloudN directories\n"
               "HTTP retry knobs:\n"
               "       --retry-attempts=N (4)  --retry-backoff-ms=MS (50)\n"
               "       --retry-deadline-ms=MS (0 = no overall deadline)\n");
  return 2;
}

// Strips every trailing "--name=value" flag off argv and returns the value
// of the requested one (or `fallback`). Flags may appear in any order after
// the positional arguments. A value that is not a whole decimal uint64
// (empty, signed, non-numeric, trailing garbage, out of range) is reported
// and sets *bad.
uint64_t TakeFlag(int* argc, char** argv, const char* name, uint64_t fallback, bool* bad) {
  std::string prefix = std::string("--") + name + "=";
  uint64_t value = fallback;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const char* text = argv[i] + prefix.size();
      const char* end = text + std::strlen(text);
      auto [ptr, ec] = std::from_chars(text, end, value);
      if (ec != std::errc() || ptr != end || text == end) {
        std::fprintf(stderr, "invalid value for --%s: '%s'\n", name, text);
        *bad = true;
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

// Strips every "--name=value" occurrence and returns all the values in
// order — for repeatable flags like --cloud= (first value is cloud 0).
std::vector<std::string> TakeFlagAll(int* argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  std::vector<std::string> values;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      values.emplace_back(argv[i] + prefix.size());
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return values;
}

// Strips every bare "--name" occurrence; true when it appeared at all.
bool TakeBoolFlag(int* argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  bool found = false;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    if (flag == argv[i]) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return found;
}

uint64_t NowMs() { return static_cast<uint64_t>(std::time(nullptr)) * 1000ull; }

// ---- metrics rendering ----------------------------------------------------

std::string LabelsText(const MetricLabels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += '}';
  return out;
}

// Human table: one row per series, sorted (Snapshot order is already
// name+labels). Histograms show count/mean/p50/p99 from the merged buckets.
void PrintMetricsTable(const std::vector<MetricSample>& samples) {
  std::printf("%-72s %s\n", "metric", "value");
  for (const MetricSample& s : samples) {
    std::string name = s.name + LabelsText(s.labels);
    if (s.kind == MetricSample::kHistogram) {
      HistogramSnapshot snap{s.bounds, s.bucket_counts, s.count, s.sum};
      std::printf("%-72s count=%llu mean=%.0f p50=%.0f p99=%.0f\n", name.c_str(),
                  static_cast<unsigned long long>(s.count), snap.Mean(),
                  snap.Quantile(0.5), snap.Quantile(0.99));
    } else {
      std::printf("%-72s %lld\n", name.c_str(), static_cast<long long>(s.value));
    }
  }
  std::printf("%zu series\n", samples.size());
}

void AppendJsonEscaped(const std::string& v, std::string* out) {
  for (char c : v) {
    if (c == '"' || c == '\\') {
      *out += '\\';
    }
    *out += c;
  }
}

// One JSON array, one object per series. Histogram quantiles are
// pre-interpolated so consumers need no bucket math.
void PrintMetricsJson(const std::vector<MetricSample>& samples) {
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    if (i > 0) {
      out += ',';
    }
    out += "\n {\"name\":\"";
    AppendJsonEscaped(s.name, &out);
    out += "\",\"labels\":{";
    for (size_t l = 0; l < s.labels.size(); ++l) {
      if (l > 0) {
        out += ',';
      }
      out += '"';
      AppendJsonEscaped(s.labels[l].first, &out);
      out += "\":\"";
      AppendJsonEscaped(s.labels[l].second, &out);
      out += '"';
    }
    out += "},";
    if (s.kind == MetricSample::kHistogram) {
      HistogramSnapshot snap{s.bounds, s.bucket_counts, s.count, s.sum};
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"kind\":\"histogram\",\"count\":%llu,\"sum\":%llu,"
                    "\"mean\":%.1f,\"p50\":%.1f,\"p99\":%.1f}",
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.sum), snap.Mean(),
                    snap.Quantile(0.5), snap.Quantile(0.99));
      out += buf;
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"kind\":\"%s\",\"value\":%lld}",
                    s.kind == MetricSample::kGauge ? "gauge" : "counter",
                    static_cast<long long>(s.value));
      out += buf;
    }
  }
  out += "\n]\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

namespace {

// The command dispatch: everything after flag parsing and deployment
// bring-up. Runs against main's Deployment so `d` (and its metrics
// registry) outlives the command and can be reported or served afterwards.
// Renders a trace dump: the human span tree, the slow-request flight
// recorder, and the shed accounting — or, with a --chrome-json target, a
// Chrome trace-event file instead ("-" = stdout).
int ReportTraces(const std::vector<TraceSpanSample>& spans,
                 const std::vector<SlowTraceSample>& slow, uint64_t recorded,
                 uint64_t dropped, uint64_t unsampled, uint64_t evictions,
                 const std::string& chrome_json) {
  if (!chrome_json.empty()) {
    std::string out = ChromeTraceJson(spans);
    if (chrome_json == "-") {
      std::fputs(out.c_str(), stdout);
      return 0;
    }
    if (Status st = WriteFile(chrome_json, BytesOf(out)); !st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", chrome_json.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu span(s) to %s (load in chrome://tracing or Perfetto)\n",
                spans.size(), chrome_json.c_str());
    return 0;
  }
  std::fputs(FormatTraceTree(spans).c_str(), stdout);
  if (!slow.empty()) {
    std::printf("slow requests (flight recorder, worst first):\n");
    for (const SlowTraceSample& s : slow) {
      std::printf("  %-10s %8.1f ms  trace=0x%llx%s\n", s.root.c_str(),
                  static_cast<double>(s.dur_ns) / 1e6,
                  static_cast<unsigned long long>(s.trace_id),
                  s.sampled != 0 ? "" : " (unsampled; only the root span exists)");
    }
  }
  std::printf("%zu span(s); recorded=%llu dropped=%llu unsampled=%llu "
              "flight_evictions=%llu\n",
              spans.size(), static_cast<unsigned long long>(recorded),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(unsampled),
              static_cast<unsigned long long>(evictions));
  return 0;
}

// The command dispatch: everything after flag parsing and deployment
// bring-up (see the block comment above RunCommand's caller).
int RunCommand(const std::string& cmd, int argc, char** argv, Deployment& d, UserId user,
               uint64_t gen, uint64_t keep, uint64_t within_weeks, uint64_t as_of,
               bool json, const std::string& chrome_json) {
  if (cmd == "backup" && argc >= 4) {
    // All files share one session: encode workers and per-cloud uploader
    // threads are set up once, files stream through one after another. A
    // re-backup of an existing path appends a new generation.
    CdstoreClient client(d.ptrs, user, d.client_options);
    auto session = client.OpenBackupSession();
    if (!session.ok()) {
      std::fprintf(stderr, "session failed: %s\n", session.status().ToString().c_str());
      return 1;
    }
    UploadFileOptions fopts;
    fopts.mode = PutFileMode::kNewGeneration;
    fopts.timestamp_ms = NowMs();
    for (int a = 3; a < argc; ++a) {
      auto data = ReadFileBytes(argv[a]);
      if (!data.ok()) {
        std::fprintf(stderr, "read failed: %s\n", data.status().ToString().c_str());
        return 1;
      }
      UploadStats stats;
      Status st = session.value()->Upload(argv[a], data.value(), &stats, fopts);
      if (!st.ok()) {
        std::fprintf(stderr, "backup failed: %s\n", st.ToString().c_str());
        return 1;
      }
      double saving = stats.logical_share_bytes == 0
                          ? 0.0
                          : 100.0 * (1.0 - static_cast<double>(stats.transferred_share_bytes) /
                                               static_cast<double>(stats.logical_share_bytes));
      std::printf("backed up %s as generation %llu: %s in %zu secrets across %d clouds; "
                  "transferred %s (dedup saved %.1f%%)\n",
                  argv[a], static_cast<unsigned long long>(stats.generation_id),
                  FormatSize(stats.logical_bytes).c_str(),
                  static_cast<size_t>(stats.num_secrets), kN,
                  FormatSize(stats.transferred_share_bytes).c_str(), saving);
    }
    Status close = session.value()->Close();
    if (!close.ok()) {
      std::fprintf(stderr, "session close failed: %s\n", close.ToString().c_str());
      return 1;
    }
    return 0;
  }

  if (cmd == "restore" && argc >= 5) {
    CdstoreClient client(d.ptrs, user, d.client_options);
    // Stream the restore straight to disk: decoded secrets hit the file as
    // fetch lanes and decode workers pipeline, never a whole file in RAM.
    // Restores go to a temp path renamed into place on success, so a
    // failed restore never clobbers an existing good copy at out_path.
    std::string out_path = argv[4];
    std::string tmp_path = out_path + ".partial";
    auto sink = FileByteSink::Open(tmp_path);
    if (!sink.ok()) {
      std::fprintf(stderr, "open failed: %s\n", sink.status().ToString().c_str());
      return 1;
    }
    DownloadStats stats;
    Status st = client.Download(argv[3], *sink.value(), &stats, gen);
    if (st.ok()) {
      st = sink.value()->Close();
    }
    if (!st.ok()) {
      std::remove(tmp_path.c_str());
      std::fprintf(stderr, "restore failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
      std::fprintf(stderr, "rename %s -> %s failed\n", tmp_path.c_str(), out_path.c_str());
      return 1;
    }
    std::printf("restored %s%s -> %s (%s from clouds", argv[3],
                gen == 0 ? " (latest)" : (" gen " + std::to_string(gen)).c_str(),
                out_path.c_str(), FormatSize(sink.value()->bytes_written()).c_str());
    for (int c : stats.clouds_used) {
      std::printf(" %d", c);
    }
    std::printf(")\n");
    return 0;
  }

  if (cmd == "versions" && argc >= 4) {
    CdstoreClient client(d.ptrs, user, d.client_options);
    auto versions = client.ListVersions(argv[3]);
    if (!versions.ok()) {
      std::fprintf(stderr, "versions failed: %s\n", versions.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6s %-12s %-12s %-10s %s\n", "gen", "logical", "unique", "secrets",
                "timestamp_ms");
    for (const VersionInfo& v : versions.value()) {
      std::printf("%-6llu %-12s %-12s %-10llu %llu\n",
                  static_cast<unsigned long long>(v.generation_id),
                  FormatSize(v.logical_bytes).c_str(), FormatSize(v.unique_bytes).c_str(),
                  static_cast<unsigned long long>(v.num_secrets),
                  static_cast<unsigned long long>(v.timestamp_ms));
    }
    return 0;
  }

  if (cmd == "prune" && argc >= 4) {
    if (keep == 0 && within_weeks == 0) {
      std::fprintf(stderr, "prune needs --keep=N and/or --within-weeks=W\n");
      return 2;
    }
    CdstoreClient client(d.ptrs, user, d.client_options);
    RetentionPolicy policy;
    // Clamp rather than truncate: a --keep above 2^32 must not wrap to a
    // "no count rule" zero.
    policy.keep_last_n =
        keep > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(keep);
    // Saturate rather than wrap for absurdly large windows.
    policy.keep_within_ms = within_weeks > UINT64_MAX / kWeekMs ? UINT64_MAX
                                                                : within_weeks * kWeekMs;
    policy.now_ms = NowMs();
    auto reply = client.ApplyRetention(argv[3], policy);
    if (!reply.ok()) {
      std::fprintf(stderr, "prune failed: %s\n", reply.status().ToString().c_str());
      return 1;
    }
    std::printf("pruned %u generation(s) of %s (%s logical, %u shares orphaned):",
                reply.value().generations_deleted, argv[3],
                FormatSize(reply.value().logical_bytes_deleted).c_str(),
                reply.value().shares_orphaned);
    for (uint64_t id : reply.value().deleted_generations) {
      std::printf(" %llu", static_cast<unsigned long long>(id));
    }
    std::printf("\nrun 'gc' to reclaim container space\n");
    return 0;
  }

  if (cmd == "ls") {
    // Namespace enumeration: pathnames reconstructed from k clouds'
    // dispersed shares (no single cloud ever held them), paged RPCs
    // underneath so no reply frame carries the whole namespace.
    CdstoreClient client(d.ptrs, user, d.client_options);
    auto listing = client.ListPaths();
    if (!listing.ok()) {
      std::fprintf(stderr, "ls failed: %s\n", listing.status().ToString().c_str());
      return 1;
    }
    std::printf("%-40s %-6s %-8s %-12s %s\n", "path", "gens", "latest", "size",
                "last_backup_ms");
    for (const NamespaceEntry& e : listing.value().entries) {
      std::printf("%-40s %-6llu %-8llu %-12s %llu\n", e.path_name.c_str(),
                  static_cast<unsigned long long>(e.generation_count),
                  static_cast<unsigned long long>(e.latest_generation),
                  FormatSize(e.latest_logical_bytes).c_str(),
                  static_cast<unsigned long long>(e.latest_timestamp_ms));
    }
    if (listing.value().unnamed_paths > 0) {
      std::printf("(%llu path(s) could not be resolved: fewer than k clouds list them, "
                  "or their name shares disagree)\n",
                  static_cast<unsigned long long>(listing.value().unnamed_paths));
    }
    std::printf("%zu path(s)\n", listing.value().entries.size());
    return 0;
  }

  if (cmd == "prune-all") {
    if (keep == 0 && within_weeks == 0) {
      std::fprintf(stderr, "prune-all needs --keep=N and/or --within-weeks=W\n");
      return 2;
    }
    CdstoreClient client(d.ptrs, user, d.client_options);
    RetentionPolicy policy;
    policy.keep_last_n = keep > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(keep);
    policy.keep_within_ms = within_weeks > UINT64_MAX / kWeekMs ? UINT64_MAX
                                                                : within_weeks * kWeekMs;
    policy.now_ms = NowMs();
    // Resolve names first so the per-path report is human-readable (the
    // sweep reply itself carries only path ids).
    std::map<Bytes, std::string> names;
    if (auto listing = client.ListPaths(); listing.ok()) {
      for (const NamespaceEntry& e : listing.value().entries) {
        names[e.path_id] = e.path_name;
      }
    }
    auto reply = client.ApplyRetentionNamespace(policy);
    if (!reply.ok()) {
      std::fprintf(stderr, "prune-all failed: %s\n", reply.status().ToString().c_str());
      return 1;
    }
    const ApplyRetentionNamespaceReply& r = reply.value();
    std::printf("swept %llu path(s) in %u page(s): pruned %llu generation(s), %s logical, "
                "%u shares orphaned, %llu path(s) emptied\n",
                static_cast<unsigned long long>(r.paths_swept), r.pages,
                static_cast<unsigned long long>(r.generations_deleted),
                FormatSize(r.logical_bytes_deleted).c_str(), r.shares_orphaned,
                static_cast<unsigned long long>(r.paths_removed));
    for (const PathRetentionResult& p : r.per_path) {
      auto it = names.find(p.path_id);
      std::printf("  %-40s -%u generation(s), %s%s\n",
                  it != names.end() ? it->second.c_str() : "<unnamed path>",
                  p.generations_deleted, FormatSize(p.logical_bytes_deleted).c_str(),
                  p.path_removed ? " (path removed)" : "");
    }
    std::printf("run 'gc' to reclaim container space\n");
    return 0;
  }

  if (cmd == "restore-all" && argc >= 4) {
    // Point-in-time restore of the whole namespace under <out_dir>:
    // equivalent to running `restore` once per path with the right --gen,
    // but the generation resolution (newest at or before --as-of) happens
    // per path, and paths born after the point are skipped.
    std::string out_dir = argv[3];
    CdstoreClient client(d.ptrs, user, d.client_options);
    RestoreSelector selector;
    selector.as_of_ms = as_of;
    Status close_error;
    // Wraps FileByteSink so the flush error of each restored file
    // surfaces even though RestoreNamespace owns the sink's lifetime.
    class ClosingFileSink : public ByteSink {
     public:
      ClosingFileSink(std::unique_ptr<FileByteSink> f, Status* err)
          : f_(std::move(f)), err_(err) {}
      ~ClosingFileSink() override {
        if (Status st = f_->Close(); !st.ok() && err_->ok()) {
          *err_ = st;
        }
      }
      Status Append(ConstByteSpan data) override { return f_->Append(data); }

     private:
      std::unique_ptr<FileByteSink> f_;
      Status* err_;
    };
    auto factory = [&](const NamespaceEntry& e,
                       uint64_t g) -> Result<std::unique_ptr<ByteSink>> {
      (void)g;
      // Rebuild the destination from sanitized components: backup names
      // are untrusted here, and a stored "../x" (or "/a/../../x") must not
      // write outside out_dir. ".." components skip the file loudly
      // instead of being silently rewritten.
      std::string rel;
      for (size_t i = 0; i < e.path_name.size();) {
        size_t j = e.path_name.find('/', i);
        if (j == std::string::npos) {
          j = e.path_name.size();
        }
        std::string comp = e.path_name.substr(i, j - i);
        i = j + 1;
        if (comp.empty() || comp == ".") {
          continue;
        }
        if (comp == "..") {
          std::fprintf(stderr, "skipping %s: path would escape %s\n", e.path_name.c_str(),
                       out_dir.c_str());
          return std::unique_ptr<ByteSink>();  // counted as skipped
        }
        rel += rel.empty() ? comp : "/" + comp;
      }
      if (rel.empty()) {
        std::fprintf(stderr, "skipping backup path %s: no usable file name\n",
                     e.path_name.c_str());
        return std::unique_ptr<ByteSink>();
      }
      std::string dest = out_dir + "/" + rel;
      if (auto slash = dest.find_last_of('/'); slash != std::string::npos) {
        if (Status st = CreateDirs(dest.substr(0, slash)); !st.ok()) {
          return st;
        }
      }
      auto sink = FileByteSink::Open(dest);
      if (!sink.ok()) {
        return sink.status();
      }
      return std::unique_ptr<ByteSink>(
          new ClosingFileSink(std::move(sink.value()), &close_error));
    };
    auto stats = client.RestoreNamespace(selector, factory);
    if (!stats.ok()) {
      std::fprintf(stderr, "restore-all failed: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    if (!close_error.ok()) {
      std::fprintf(stderr, "restore-all failed: %s\n", close_error.ToString().c_str());
      return 1;
    }
    for (const RestoredPath& p : stats.value().restored) {
      std::printf("restored %s (generation %llu, %s)\n", p.path_name.c_str(),
                  static_cast<unsigned long long>(p.generation),
                  FormatSize(p.bytes).c_str());
    }
    std::printf("restored %llu file(s), %s%s; skipped %llu\n",
                static_cast<unsigned long long>(stats.value().files_restored),
                FormatSize(stats.value().bytes_restored).c_str(),
                as_of == 0 ? " (latest)" : "",
                static_cast<unsigned long long>(stats.value().files_skipped));
    if (stats.value().files_unnamed > 0) {
      // An incomplete restore must not look complete: paths whose names
      // could not be resolved across the clouds are missing from out_dir.
      std::fprintf(stderr,
                   "WARNING: %llu path(s) could not be resolved and were NOT restored; "
                   "fewer than k clouds list them, or their name shares disagree\n",
                   static_cast<unsigned long long>(stats.value().files_unnamed));
      return 1;
    }
    return 0;
  }

  if ((cmd == "rm" || cmd == "delete") && argc >= 4) {
    // The DeleteFile RPC end to end: every generation's references are
    // dropped on every cloud; a never-backed-up path is a clean NotFound.
    CdstoreClient client(d.ptrs, user, d.client_options);
    Status st = client.DeleteFile(argv[3]);
    if (!st.ok()) {
      std::fprintf(stderr, "rm %s failed: %s\n", argv[3], st.ToString().c_str());
      return 1;
    }
    std::printf("rm %s: ok (run 'gc' to reclaim space)\n", argv[3]);
    return 0;
  }

  if (cmd == "stats") {
    if (json) {
      std::printf("[");
    }
    bool first = true;
    for (int i = 0; i < kN; ++i) {
      Bytes frame = Dispatch(*d.servers[i], Encode(StatsRequest{}));
      StatsReply stats;
      if (!Decode(frame, &stats).ok()) {
        continue;
      }
      if (json) {
        std::printf("%s\n {\"cloud\":%d,\"files\":%llu,\"generations\":%llu,"
                    "\"unique_shares\":%llu,\"stored_bytes\":%llu,\"containers\":%llu}",
                    first ? "" : ",", i, static_cast<unsigned long long>(stats.file_count),
                    static_cast<unsigned long long>(stats.generation_count),
                    static_cast<unsigned long long>(stats.unique_shares),
                    static_cast<unsigned long long>(stats.stored_bytes),
                    static_cast<unsigned long long>(stats.container_count));
        first = false;
        continue;
      }
      std::printf("cloud %d: %llu files (%llu generations), %llu unique shares, %s stored, "
                  "%llu containers\n",
                  i, static_cast<unsigned long long>(stats.file_count),
                  static_cast<unsigned long long>(stats.generation_count),
                  static_cast<unsigned long long>(stats.unique_shares),
                  FormatSize(stats.stored_bytes).c_str(),
                  static_cast<unsigned long long>(stats.container_count));
    }
    if (json) {
      std::printf("\n]\n");
    }
    return 0;
  }

  if (cmd == "metrics") {
    // Scrape over the wire, not in-process: probe each cloud with a Stats
    // RPC first (a liveness check that also exercises the per-RPC dispatch
    // histograms), then pull the snapshot through the GetMetrics RPC — the
    // exact frames a remote operator tool would send. The CLI's four clouds
    // share one deployment registry, so one scrape covers them all.
    for (int i = 0; i < kN; ++i) {
      auto frame = d.ptrs[i]->Call(Encode(StatsRequest{}));
      Status st = frame.ok() ? DecodeIfError(frame.value()) : frame.status();
      if (!st.ok()) {
        std::fprintf(stderr, "stats probe on cloud %d failed: %s\n", i,
                     st.ToString().c_str());
        return 1;
      }
    }
    auto frame = d.ptrs[0]->Call(Encode(GetMetricsRequest{}));
    Status st = frame.ok() ? DecodeIfError(frame.value()) : frame.status();
    GetMetricsReply reply;
    if (st.ok()) {
      st = Decode(frame.value(), &reply);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "metrics scrape failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (json) {
      PrintMetricsJson(reply.samples);
    } else {
      PrintMetricsTable(reply.samples);
    }
    return 0;
  }

  if (cmd == "trace") {
    // Scrape over the wire via the GetTraces RPC — the frame a remote
    // operator tool would send. All four clouds share the deployment
    // tracer, so cloud 0's dump covers every server-side span; a fresh CLI
    // process has an empty dump unless this invocation also ran traced
    // work, so the common path is `backup --trace [--chrome-json=FILE]`,
    // which dumps in-process on exit instead.
    auto frame = d.ptrs[0]->Call(Encode(GetTracesRequest{}));
    Status st = frame.ok() ? DecodeIfError(frame.value()) : frame.status();
    GetTracesReply reply;
    if (st.ok()) {
      st = Decode(frame.value(), &reply);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "trace scrape failed: %s\n", st.ToString().c_str());
      return 1;
    }
    return ReportTraces(reply.spans, reply.slow, reply.spans_recorded,
                        reply.spans_dropped, reply.unsampled,
                        reply.flight_evictions, chrome_json);
  }

  if (cmd == "gc") {
    // Drives the Gc RPC over the transports (the same frames a remote
    // operator tool would send), not the in-process CollectGarbage call.
    for (int i = 0; i < kN; ++i) {
      auto frame = d.ptrs[i]->Call(Encode(GcRequest{}));
      Status st = frame.ok() ? DecodeIfError(frame.value()) : frame.status();
      GcReply reply;
      if (st.ok()) {
        st = Decode(frame.value(), &reply);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "gc on cloud %d failed: %s\n", i, st.ToString().c_str());
        return 1;
      }
      std::printf("cloud %d: scanned %llu containers, rewrote %llu, reclaimed %s\n", i,
                  static_cast<unsigned long long>(reply.containers_scanned),
                  static_cast<unsigned long long>(reply.containers_rewritten),
                  FormatSize(reply.bytes_reclaimed).c_str());
    }
    return 0;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  bool bad_flag = false;
  UserId user = TakeFlag(&argc, argv, "user", 1, &bad_flag);
  uint64_t gen = TakeFlag(&argc, argv, "gen", 0, &bad_flag);
  uint64_t keep = TakeFlag(&argc, argv, "keep", 0, &bad_flag);
  uint64_t within_weeks = TakeFlag(&argc, argv, "within-weeks", 0, &bad_flag);
  uint64_t as_of = TakeFlag(&argc, argv, "as-of", 0, &bad_flag);
  bool json = TakeBoolFlag(&argc, argv, "json");
  bool show_metrics = TakeBoolFlag(&argc, argv, "metrics");
  bool trace = TakeBoolFlag(&argc, argv, "trace");
  std::vector<std::string> chrome_flags = TakeFlagAll(&argc, argv, "chrome-json");
  std::string chrome_json = chrome_flags.empty() ? "" : chrome_flags.back();
  trace = trace || !chrome_json.empty();
  uint64_t serve_ms = TakeFlag(&argc, argv, "serve-metrics-ms", 0, &bad_flag);
  uint64_t serve_port = TakeFlag(&argc, argv, "serve-metrics-port", 0, &bad_flag);
  std::vector<std::string> clouds = TakeFlagAll(&argc, argv, "cloud");
  RetryPolicy retry;  // HTTP clouds only; directory clouds never retry
  retry.max_attempts =
      static_cast<int>(TakeFlag(&argc, argv, "retry-attempts", 4, &bad_flag));
  retry.initial_backoff_ms = TakeFlag(&argc, argv, "retry-backoff-ms", 50, &bad_flag);
  retry.max_backoff_ms = retry.initial_backoff_ms * 20;
  retry.overall_deadline_ms = TakeFlag(&argc, argv, "retry-deadline-ms", 0, &bad_flag);
  if (bad_flag || argc < 3) {
    return Usage();
  }
  if (clouds.size() > static_cast<size_t>(kN)) {
    std::fprintf(stderr, "at most %d --cloud= flags (got %zu)\n", kN, clouds.size());
    return 2;
  }
  std::string state_dir = argv[1];
  std::string cmd = argv[2];
  Deployment d;
  if (!OpenDeployment(state_dir, clouds, retry, trace || cmd == "trace", &d)) {
    return 1;
  }
  int rc = RunCommand(cmd, argc, argv, d, user, gen, keep, within_weeks, as_of, json,
                      chrome_json);

  // Post-command observability. --metrics dumps every series the command
  // populated (client pipeline, server dispatch, HTTP retry layers);
  // --serve-metrics-ms keeps a GET /metrics endpoint up afterwards so an
  // external scraper (curl, a Prometheus test target) pulls the same
  // snapshot over HTTP before the process exits.
  if (rc == 0 && show_metrics && cmd != "metrics") {
    PrintMetricsTable(d.registry.Snapshot());
  }
  // --trace dumps the spans this invocation recorded (client pipeline,
  // retry attempts, and — via the propagated wire context — the server-side
  // waits/commits they parented). The `trace` command already reported its
  // wire scrape above.
  if (rc == 0 && trace && cmd != "trace" && d.tracer != nullptr) {
    TraceDump dump = d.tracer->Dump();
    rc = ReportTraces(dump.spans, dump.slow, dump.spans_recorded, dump.spans_dropped,
                      dump.unsampled, dump.flight_evictions, chrome_json);
  }
  if (rc == 0 && serve_ms > 0) {
    auto server = MetricsHttpServer::Start(&d.registry, static_cast<int>(serve_port));
    if (!server.ok()) {
      std::fprintf(stderr, "metrics endpoint failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    std::printf("serving %s for %llu ms\n", server.value()->url().c_str(),
                static_cast<unsigned long long>(serve_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
    server.value()->Stop();
  }
  return rc;
}
