// The CDStore client <-> server wire protocol. One request/reply pair per
// interaction of §3.3/§4:
//
//   FpQuery        intra-user dedup check ("which of these shares have I
//                  already uploaded?")
//   UploadShares   4MB batches of unique shares (server re-fingerprints)
//   PutFile        finalize a file generation: pathname share + recipe
//   GetFile        fetch a generation's recipe by pathname share
//   GetShares      fetch shares by fingerprint
//   DeleteFile     drop a file (every generation) and its share references
//   Stats          server-side accounting for experiments
//   ListVersions   enumerate a path's backup generations (§5: the paper's
//                  workloads are weekly snapshot series)
//   DeleteVersion  drop one generation's share references
//   ApplyRetention prune generations by keep-last-N / keep-within-window
//   ListPaths      paginated enumeration of a user's namespace (path ids +
//                  dispersed name shares; replies stay bounded via cursor)
//   ApplyRetentionNamespace
//                  one server-side retention sweep over every path of the
//                  user's namespace (commit-locked per page, not per path)
//   Gc             rewrite containers that hold orphaned shares (§4.7)
//   GetMetrics     scrape the server's metric registry (src/obs)
//   GetTraces      scrape the server's span dump (src/obs/trace.h)
//
// Every message is [u8 type][payload]; replies reuse the same enum. Errors
// travel as a kError frame wrapping a status code + text. Any request may
// ride inside a kTracedRequest envelope that prepends a trace context.
#ifndef CDSTORE_SRC_NET_MESSAGE_H_
#define CDSTORE_SRC_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/io.h"
#include "src/util/status.h"

namespace cdstore {

// Each request comes right before its reply (RpcName relies on the pairing).
enum class MsgType : uint8_t {
  kError = 0,
  kFpQueryRequest,
  kFpQueryReply,
  kUploadSharesRequest,
  kUploadSharesReply,
  kPutFileRequest,
  kPutFileReply,
  kGetFileRequest,
  kGetFileReply,
  kGetSharesRequest,
  kGetSharesReply,
  kDeleteFileRequest,
  kDeleteFileReply,
  kStatsRequest,
  kStatsReply,
  kGcRequest,
  kGcReply,
  kListVersionsRequest,
  kListVersionsReply,
  kDeleteVersionRequest,
  kDeleteVersionReply,
  kApplyRetentionRequest,
  kApplyRetentionReply,
  kListPathsRequest,
  kListPathsReply,
  kApplyRetentionNamespaceRequest,
  kApplyRetentionNamespaceReply,
  kGetMetricsRequest,
  kGetMetricsReply,
  kGetTracesRequest,
  kGetTracesReply,
  // Optional trace-context envelope around any request frame:
  // [u8 kTracedRequest][u64 trace_id][u64 parent_span_id][u8 sampled]
  // [inner frame bytes]. Dispatch peels it before typed decode, so frames
  // WITHOUT the envelope stay byte-identical to pre-tracing peers, and
  // untraced requests never pay for the header.
  kTracedRequest,
};

// One past the largest MsgType value: sizes per-RPC-type lookup tables
// (e.g. the dispatcher's cached metric handles).
inline constexpr size_t kNumMsgTypes = static_cast<size_t>(MsgType::kTracedRequest) + 1;

// The RPC name shared by a request/reply pair ("FpQuery" for
// kFpQueryRequest and kFpQueryReply); "Error" / "Unknown" otherwise. Used
// as the `rpc` label of the per-RPC metrics and by the CLI.
const char* RpcName(MsgType type);

// One secret's share within a file recipe (§4.3 share metadata).
struct RecipeEntry {
  Fingerprint fp;         // share fingerprint (for retrieval & dedup refs)
  uint32_t secret_size;   // original secret size (strips CAONT padding)
  uint32_t share_size;    // share size (sanity checks)
};

struct FpQueryRequest {
  uint64_t user = 0;
  std::vector<Fingerprint> fps;
};
struct FpQueryReply {
  // duplicate[i] == 1 iff fps[i] is already stored *by this user*.
  std::vector<uint8_t> duplicate;
};

struct UploadSharesRequest {
  uint64_t user = 0;
  std::vector<Bytes> shares;
};
// Zero-copy decode target for an UploadSharesRequest (same wire layout):
// each share is a span into the request frame, so a server handler holds no
// per-share heap copy of the payload. The frame must outlive the view.
struct UploadSharesRequestView {
  uint64_t user = 0;
  std::vector<ConstByteSpan> shares;
};
struct UploadSharesReply {
  uint32_t stored = 0;        // shares newly written to a container
  uint32_t deduplicated = 0;  // shares inter-user deduplicated away
};

// How PutFile binds the uploaded recipe into the versioned namespace.
enum class PutFileMode : uint8_t {
  // Append a new backup generation under the path (a weekly snapshot in
  // the paper's workloads); the path's earlier generations stay restorable.
  kNewGeneration = 0,
  // Replace the path's latest generation IN PLACE (the pre-versioning
  // overwrite semantics): the old latest's share references are dropped
  // and its generation id is reused, so partial-failure retries keep
  // per-cloud id allocation in lockstep.
  kReplaceLatest = 1,
  // Write generation `generation_id` exactly (repair of one cloud's copy
  // of an existing generation): ids stay in lockstep across clouds.
  kPutGeneration = 2,
};

struct PutFileRequest {
  uint64_t user = 0;
  Bytes path_key;  // this cloud's share of the encoded pathname
  // Namespace-enumeration metadata, stored in the path head so ListPaths
  // can hand the path back to a client later: a client-derived id that is
  // identical on every cloud (matches one path's entries across listings),
  // and the cleartext name's byte length (strips dispersal padding when k
  // name shares are decoded; the share size already bounds it, so this
  // leaks nothing the cloud cannot infer).
  Bytes path_id;
  uint32_t path_name_len = 0;
  uint64_t file_size = 0;
  PutFileMode mode = PutFileMode::kNewGeneration;
  uint64_t generation_id = 0;  // kPutGeneration only; must be nonzero there
  uint64_t timestamp_ms = 0;   // client backup time, drives retention windows
  std::vector<RecipeEntry> recipe;
};
struct PutFileReply {
  uint64_t generation_id = 0;  // the generation this recipe was bound to
};

struct GetFileRequest {
  uint64_t user = 0;
  Bytes path_key;
  uint64_t generation = 0;  // 0 = latest
};
struct GetFileReply {
  uint64_t generation_id = 0;  // resolved id (latest when requested as 0)
  uint64_t file_size = 0;
  std::vector<RecipeEntry> recipe;
};

struct GetSharesRequest {
  uint64_t user = 0;
  std::vector<Fingerprint> fps;
};
struct GetSharesReply {
  std::vector<Bytes> shares;  // same order as request
};
// Zero-copy decode target for a GetSharesReply (same wire layout): each
// share is a span into the reply frame, which must outlive the view.
struct GetSharesReplyView {
  std::vector<ConstByteSpan> shares;
};

struct DeleteFileRequest {
  uint64_t user = 0;
  Bytes path_key;
};
struct DeleteFileReply {
  uint32_t generations_deleted = 0;
  uint32_t shares_orphaned = 0;
};

// --- versioned namespace (backup generations) ----------------------------

// One backup generation of a path as this cloud indexed it. unique_bytes is
// the share bytes whose FIRST reference came from this generation (exact
// under the server's striped locks), so logical/unique is the
// per-generation dedup ratio the §5.6 cost model consumes.
struct VersionInfo {
  uint64_t generation_id = 0;
  uint64_t logical_bytes = 0;  // file size of this generation
  uint64_t unique_bytes = 0;   // share bytes first referenced by it
  uint64_t num_secrets = 0;
  uint64_t timestamp_ms = 0;
};

struct ListVersionsRequest {
  uint64_t user = 0;
  Bytes path_key;
};
struct ListVersionsReply {
  std::vector<VersionInfo> versions;  // ascending generation_id
};

struct DeleteVersionRequest {
  uint64_t user = 0;
  Bytes path_key;
  uint64_t generation_id = 0;  // must name an existing generation
};
struct DeleteVersionReply {
  uint32_t shares_orphaned = 0;
};

// Retention policy (§5.6 prices "weekly backups under a retention
// window"): a generation SURVIVES if it is among the newest keep_last_n by
// generation id, OR its timestamp lies within keep_within_ms of now_ms. A
// rule set to 0 is absent; with both absent nothing is pruned. now_ms
// travels in the request so pruning is deterministic and testable.
struct RetentionPolicy {
  uint32_t keep_last_n = 0;
  uint64_t keep_within_ms = 0;
  uint64_t now_ms = 0;
};

struct ApplyRetentionRequest {
  uint64_t user = 0;
  Bytes path_key;
  RetentionPolicy policy;
};
struct ApplyRetentionReply {
  uint32_t generations_deleted = 0;
  uint32_t shares_orphaned = 0;
  uint64_t logical_bytes_deleted = 0;
  std::vector<uint64_t> deleted_generations;  // ascending
};

// --- namespace-scoped control plane ---------------------------------------

// One path head as this cloud indexed it: the enumeration unit of the
// namespace. `path_id` matches this path's entries across clouds; k clouds'
// `name_share`s reconstruct the cleartext name (§4.3 dispersed metadata).
struct PathInfo {
  Bytes path_id;
  Bytes name_share;
  uint32_t name_len = 0;
  uint64_t latest_generation = 0;
  uint64_t generation_count = 0;
  uint64_t latest_timestamp_ms = 0;
  uint64_t latest_logical_bytes = 0;
};

struct ListPathsRequest {
  uint64_t user = 0;
  // Resume cursor from the previous reply; empty = start of the namespace.
  Bytes cursor;
  // Max entries in this page; 0 = server default. The server clamps it, so
  // reply frames stay bounded no matter how large the namespace is.
  uint32_t max_entries = 0;
};
struct ListPathsReply {
  std::vector<PathInfo> paths;  // ascending H(path_key) order
  Bytes next_cursor;            // empty = namespace exhausted
};

// Retention applied to every path of the user's namespace in one RPC. The
// server sweeps the namespace page by page, taking its commit lock once
// per page instead of once per path; prune decisions are identical to a
// per-path ApplyRetention loop over the same policy.
struct ApplyRetentionNamespaceRequest {
  uint64_t user = 0;
  RetentionPolicy policy;
  // Paths per commit-locked page; 0 = server default.
  uint32_t page_size = 0;
};
// Per-path pruning outcome within a namespace sweep (only paths that lost
// at least one generation are reported).
struct PathRetentionResult {
  Bytes path_id;
  uint32_t generations_deleted = 0;
  uint64_t logical_bytes_deleted = 0;
  uint8_t path_removed = 0;  // every generation pruned; head dropped
};
struct ApplyRetentionNamespaceReply {
  uint64_t paths_swept = 0;
  uint64_t paths_removed = 0;
  uint64_t generations_deleted = 0;
  uint32_t shares_orphaned = 0;
  uint64_t logical_bytes_deleted = 0;
  // Commit-lock acquisitions the sweep needed — O(pages), not O(paths).
  uint32_t pages = 0;
  std::vector<PathRetentionResult> per_path;
};

struct StatsRequest {};
struct StatsReply {
  uint64_t unique_shares = 0;
  uint64_t stored_bytes = 0;      // backend bytes (containers)
  uint64_t container_count = 0;
  uint64_t file_count = 0;
  // Namespace totals (all users): benches and the CLI report fleet-level
  // occupancy without paying for a full ListPaths scan.
  uint64_t generation_count = 0;
};

// Metrics scrape (observability subsystem, src/obs/): the full registry
// snapshot — counters, gauges, and merged histogram buckets — over the
// ordinary RPC surface, so the CLI and tests read a live server's metrics
// through whatever transport already connects them. The Prometheus text
// surface (GET /metrics) serves the same snapshot over HTTP.
struct GetMetricsRequest {};
struct GetMetricsReply {
  std::vector<MetricSample> samples;
};

// Trace scrape (src/obs/trace.h): the server tracer's merged span dump,
// flight-recorder outliers, and shed accounting over the ordinary RPC
// surface — what `cdstore_cli trace` renders as a tree or Chrome JSON.
struct GetTracesRequest {};
struct GetTracesReply {
  std::vector<TraceSpanSample> spans;
  std::vector<SlowTraceSample> slow;
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t unsampled = 0;
  uint64_t flight_evictions = 0;
};

// The compact trace context carried by a kTracedRequest envelope.
struct TraceContextHeader {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  uint8_t sampled = 0;
};

// Garbage collection (§4.7, realized here): rewrites containers that hold
// orphaned shares, reclaiming their space at the backend.
struct GcRequest {};
struct GcReply {
  uint64_t containers_scanned = 0;
  uint64_t containers_rewritten = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t live_shares_moved = 0;
};

// --- encoding ------------------------------------------------------------
//
// Encode/Decode cover exactly the message structs above: message.cc states
// each one's field list once, and that list drives both directions
// (instantiated there, so the layouts stay private to one file). A failed
// Decode leaves `m` unspecified.
//
// To add a message: a MsgType value (and its RpcName entry), a field list
// plus instantiation line in message.cc, and a golden frame in
// tests/wire_golden_test.cc.
template <class M>
Bytes Encode(const M& m);
template <class M>
Status Decode(ConstByteSpan frame, M* m);

MsgType PeekType(ConstByteSpan frame);

// Zero-copy UploadSharesRequest decode (the server's request path).
inline Status DecodeView(ConstByteSpan frame, UploadSharesRequestView* m) {
  return Decode(frame, m);
}

// Zero-copy decode of a GetSharesReply: each returned span views the share
// bytes in place inside `frame`, so nothing is copied out of the reply. The
// caller must keep `frame` alive for as long as the spans are used.
inline Status DecodeShareSpans(ConstByteSpan frame, std::vector<ConstByteSpan>* shares) {
  GetSharesReplyView view;
  RETURN_IF_ERROR(Decode(frame, &view));
  *shares = std::move(view.shares);
  return Status::Ok();
}

// Streams a GetSharesReply without gathering its shares: the frame starts as
// BeginGetSharesReply(count), then AppendShare adds each of the `count`
// shares. The result is byte-identical to Encode(GetSharesReply).
BufferWriter BeginGetSharesReply(size_t count);
void AppendShare(BufferWriter* frame, ConstByteSpan share);

// The RecipeEntry list exactly as PutFile and GetFile frames carry it;
// FileRecipe blobs embed the same list.
void PutRecipeEntries(BufferWriter* out, const std::vector<RecipeEntry>& entries);
Status GetRecipeEntries(BufferReader* in, std::vector<RecipeEntry>* entries);

// Wraps `inner` (a complete request frame) in a kTracedRequest envelope
// carrying `ctx`. The inner bytes ride verbatim.
Bytes WrapTraced(const TraceContextHeader& ctx, ConstByteSpan inner);
// Peels a kTracedRequest envelope: fills `ctx` and points `inner` at the
// wrapped frame bytes (a view into `frame`; no copy). kCorruption on a
// malformed envelope or a frame of any other type.
Status UnwrapTraced(ConstByteSpan frame, TraceContextHeader* ctx, ConstByteSpan* inner);

// Errors are status objects on the wire.
Bytes EncodeError(const Status& status);
// If `frame` is a kError message, returns the carried status; OK otherwise.
// A kError frame that is malformed or carries no valid error code (0 or out
// of range) yields kCorruption, so it can never read as success.
Status DecodeIfError(ConstByteSpan frame);

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_MESSAGE_H_
