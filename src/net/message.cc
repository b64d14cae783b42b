#include "src/net/message.h"

#include <concepts>
#include <iterator>
#include <type_traits>
#include <utility>

namespace cdstore {

namespace {

// ---- field kinds -----------------------------------------------------------
//
// A field list (the Fields overloads below) names a message's fields in wire
// order. Writer appends them to a frame and Reader parses them back, so one
// list drives Encode, Decode and the zero-copy view decodes. Integers are
// fixed-width little-endian unless wrapped in AsVarint/AsVarints; byte
// strings, strings and lists carry a varint length.

// A u64 field carried as a LEB128 varint, and a list of such.
struct AsVarint {
  uint64_t& v;
};
struct AsVarints {
  std::vector<uint64_t>& v;
};

// A list field whose elements are appended one by one after the frame is
// begun: only its length is written (the streamed GetShares reply).
struct ListLength {
  uint64_t n = 0;
};

// Largest valid value of each enum the protocol carries.
constexpr PutFileMode EnumMax(PutFileMode) { return PutFileMode::kPutGeneration; }

// Appends fields to a frame.
class Writer {
 public:
  explicit Writer(BufferWriter& out) : out_(out) {}

  // A field list: each field in order, led by the message's tag.
  template <class... Fs>
    requires(sizeof...(Fs) > 1)
  void operator()(Fs&&... fields) {
    ((*this)(fields), ...);
  }
  void operator()(MsgType tag) { out_.PutU8(static_cast<uint8_t>(tag)); }
  void operator()(uint8_t& v) { out_.PutU8(v); }
  void operator()(uint32_t& v) { out_.PutU32(v); }
  void operator()(uint64_t& v) { out_.PutU64(v); }
  void operator()(int64_t& v) { out_.PutU64(static_cast<uint64_t>(v)); }
  void operator()(AsVarint f) { out_.PutVarint(f.v); }
  void operator()(Bytes& b) { out_.PutBytes(b); }
  void operator()(ConstByteSpan b) { out_.PutBytes(b); }
  void operator()(std::string& s) { out_.PutString(s); }
  void operator()(ListLength l) { out_.PutVarint(l.n); }

  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& e) {
    out_.PutU8(static_cast<uint8_t>(e));
  }

  template <class T>
  void operator()(std::vector<T>& list) {
    out_.PutVarint(list.size());
    for (T& e : list) {
      (*this)(e);
    }
  }

  void operator()(AsVarints f) {
    out_.PutVarint(f.v.size());
    for (uint64_t& e : f.v) {
      (*this)(AsVarint{e});
    }
  }

  // A nested struct or pair: its own field list, without a tag.
  template <class T>
  void operator()(T& nested) {
    Fields(*this, nested);
  }

 private:
  BufferWriter& out_;
};

// Parses fields out of a frame. The first failure sticks: later fields are
// skipped and status() reports it.
class Reader {
 public:
  explicit Reader(BufferReader& in) : in_(in) {}

  const Status& status() const { return st_; }

  template <class... Fs>
    requires(sizeof...(Fs) > 1)
  void operator()(Fs&&... fields) {
    ((*this)(fields), ...);
  }
  void operator()(MsgType tag) {
    uint8_t t = 0;
    (*this)(t);
    if (st_.ok() && t != static_cast<uint8_t>(tag)) {
      st_ = Status::InvalidArgument("unexpected message type");
    }
  }
  void operator()(uint8_t& v) { Get(&BufferReader::GetU8, &v); }
  void operator()(uint32_t& v) { Get(&BufferReader::GetU32, &v); }
  void operator()(uint64_t& v) { Get(&BufferReader::GetU64, &v); }
  void operator()(int64_t& v) {
    uint64_t raw = 0;
    (*this)(raw);
    v = static_cast<int64_t>(raw);
  }
  void operator()(AsVarint f) { Get(&BufferReader::GetVarint, &f.v); }
  void operator()(Bytes& b) { Get(&BufferReader::GetBytes, &b); }
  void operator()(ConstByteSpan& b) { Get(&BufferReader::GetBytesView, &b); }
  void operator()(std::string& s) { Get(&BufferReader::GetString, &s); }

  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& e) {
    uint8_t raw = 0;
    (*this)(raw);
    if (st_.ok() && raw > static_cast<uint8_t>(EnumMax(e))) {
      st_ = Status::InvalidArgument("enum value out of range");
    }
    e = static_cast<E>(raw);
  }

  template <class T>
  void operator()(std::vector<T>& list) {
    ReadList(list, [this](T& e) { (*this)(e); });
  }

  void operator()(AsVarints f) {
    ReadList(f.v, [this](uint64_t& e) { (*this)(AsVarint{e}); });
  }

  template <class T>
  void operator()(T& nested) {
    Fields(*this, nested);
  }

 private:
  template <class T>
  void Get(Status (BufferReader::*get)(T*), T* v) {
    if (st_.ok()) {
      st_ = (in_.*get)(v);
    }
  }

  template <class T, class Each>
  void ReadList(std::vector<T>& list, Each each) {
    uint64_t count = 0;
    (*this)(AsVarint{count});
    // Every element takes at least one byte, so a larger count is corrupt;
    // checking first bounds the reserve by the frame size.
    if (st_.ok() && count > in_.remaining()) {
      st_ = Status::Corruption("list count exceeds frame");
    }
    if (!st_.ok()) {
      return;
    }
    list.clear();
    list.reserve(count);
    for (uint64_t i = 0; i < count && st_.ok(); ++i) {
      each(list.emplace_back());
    }
  }

  BufferReader& in_;
  Status st_;
};

// ---- field lists -----------------------------------------------------------
//
// One per message, in wire order. A request or reply starts with its
// MsgType tag; nested structs have none.

template <class M, class... Ts>
concept OneOf = (std::same_as<M, Ts> || ...);

template <class V, class A, class B>
void Fields(V& v, std::pair<A, B>& m) {
  v(m.first, m.second);
}

template <class V>
void Fields(V& v, RecipeEntry& m) {
  v(m.fp, m.secret_size, m.share_size);
}

template <class V>
void Fields(V& v, VersionInfo& m) {
  v(m.generation_id, m.logical_bytes, m.unique_bytes, m.num_secrets, m.timestamp_ms);
}

template <class V>
void Fields(V& v, RetentionPolicy& m) {
  v(m.keep_last_n, m.keep_within_ms, m.now_ms);
}

template <class V>
void Fields(V& v, PathInfo& m) {
  v(m.path_id, m.name_share, m.name_len, m.latest_generation, m.generation_count,
    m.latest_timestamp_ms, m.latest_logical_bytes);
}

template <class V>
void Fields(V& v, PathRetentionResult& m) {
  v(m.path_id, m.generations_deleted, m.logical_bytes_deleted, m.path_removed);
}

template <class V>
void Fields(V& v, MetricSample& m) {
  v(m.name, m.kind, m.labels, m.value, AsVarint{m.count}, AsVarint{m.sum}, AsVarints{m.bounds},
    AsVarints{m.bucket_counts});
}

template <class V>
void Fields(V& v, TraceSpanSample& m) {
  v(m.trace_id, m.span_id, m.parent_id, m.start_ns, m.dur_ns, m.tid, m.name, m.annot);
}

template <class V>
void Fields(V& v, SlowTraceSample& m) {
  v(m.trace_id, m.dur_ns, m.sampled, m.root);
}

template <class V>
void Fields(V& v, FpQueryRequest& m) {
  v(MsgType::kFpQueryRequest, m.user, m.fps);
}

template <class V>
void Fields(V& v, FpQueryReply& m) {
  v(MsgType::kFpQueryReply, m.duplicate);
}

template <class V, OneOf<UploadSharesRequest, UploadSharesRequestView> M>
void Fields(V& v, M& m) {
  v(MsgType::kUploadSharesRequest, m.user, m.shares);
}

template <class V>
void Fields(V& v, UploadSharesReply& m) {
  v(MsgType::kUploadSharesReply, m.stored, m.deduplicated);
}

template <class V>
void Fields(V& v, PutFileRequest& m) {
  v(MsgType::kPutFileRequest, m.user, m.path_key, m.path_id, m.path_name_len, m.file_size,
    m.mode, m.generation_id, m.timestamp_ms, m.recipe);
}

template <class V>
void Fields(V& v, PutFileReply& m) {
  v(MsgType::kPutFileReply, m.generation_id);
}

template <class V>
void Fields(V& v, GetFileRequest& m) {
  v(MsgType::kGetFileRequest, m.user, m.path_key, m.generation);
}

template <class V>
void Fields(V& v, GetFileReply& m) {
  v(MsgType::kGetFileReply, m.generation_id, m.file_size, m.recipe);
}

template <class V>
void Fields(V& v, GetSharesRequest& m) {
  v(MsgType::kGetSharesRequest, m.user, m.fps);
}

// The streamed reply's header: a GetSharesReply whose list is only begun.
struct GetSharesReplyHeader {
  ListLength shares;
};

template <class V, OneOf<GetSharesReply, GetSharesReplyView, GetSharesReplyHeader> M>
void Fields(V& v, M& m) {
  v(MsgType::kGetSharesReply, m.shares);
}

template <class V>
void Fields(V& v, DeleteFileRequest& m) {
  v(MsgType::kDeleteFileRequest, m.user, m.path_key);
}

template <class V>
void Fields(V& v, DeleteFileReply& m) {
  v(MsgType::kDeleteFileReply, m.generations_deleted, m.shares_orphaned);
}

template <class V>
void Fields(V& v, StatsRequest&) {
  v(MsgType::kStatsRequest);
}

template <class V>
void Fields(V& v, StatsReply& m) {
  v(MsgType::kStatsReply, m.unique_shares, m.stored_bytes, m.container_count, m.file_count,
    m.generation_count);
}

template <class V>
void Fields(V& v, GcRequest&) {
  v(MsgType::kGcRequest);
}

template <class V>
void Fields(V& v, GcReply& m) {
  v(MsgType::kGcReply, m.containers_scanned, m.containers_rewritten, m.bytes_reclaimed,
    m.live_shares_moved);
}

template <class V>
void Fields(V& v, ListVersionsRequest& m) {
  v(MsgType::kListVersionsRequest, m.user, m.path_key);
}

template <class V>
void Fields(V& v, ListVersionsReply& m) {
  v(MsgType::kListVersionsReply, m.versions);
}

template <class V>
void Fields(V& v, DeleteVersionRequest& m) {
  v(MsgType::kDeleteVersionRequest, m.user, m.path_key, m.generation_id);
}

template <class V>
void Fields(V& v, DeleteVersionReply& m) {
  v(MsgType::kDeleteVersionReply, m.shares_orphaned);
}

template <class V>
void Fields(V& v, ApplyRetentionRequest& m) {
  v(MsgType::kApplyRetentionRequest, m.user, m.path_key, m.policy);
}

template <class V>
void Fields(V& v, ApplyRetentionReply& m) {
  v(MsgType::kApplyRetentionReply, m.generations_deleted, m.shares_orphaned,
    m.logical_bytes_deleted, m.deleted_generations);
}

template <class V>
void Fields(V& v, ListPathsRequest& m) {
  v(MsgType::kListPathsRequest, m.user, m.cursor, m.max_entries);
}

template <class V>
void Fields(V& v, ListPathsReply& m) {
  v(MsgType::kListPathsReply, m.paths, m.next_cursor);
}

template <class V>
void Fields(V& v, ApplyRetentionNamespaceRequest& m) {
  v(MsgType::kApplyRetentionNamespaceRequest, m.user, m.policy, m.page_size);
}

template <class V>
void Fields(V& v, ApplyRetentionNamespaceReply& m) {
  v(MsgType::kApplyRetentionNamespaceReply, m.paths_swept, m.paths_removed,
    m.generations_deleted, m.shares_orphaned, m.logical_bytes_deleted, m.pages, m.per_path);
}

template <class V>
void Fields(V& v, GetMetricsRequest&) {
  v(MsgType::kGetMetricsRequest);
}

template <class V>
void Fields(V& v, GetMetricsReply& m) {
  v(MsgType::kGetMetricsReply, m.samples);
}

template <class V>
void Fields(V& v, GetTracesRequest&) {
  v(MsgType::kGetTracesRequest);
}

template <class V>
void Fields(V& v, GetTracesReply& m) {
  v(MsgType::kGetTracesReply, m.spans, m.slow, AsVarint{m.spans_recorded},
    AsVarint{m.spans_dropped}, AsVarint{m.unsampled}, AsVarint{m.flight_evictions});
}

// The kTracedRequest envelope's header; the inner frame follows verbatim.
template <class V>
void Fields(V& v, TraceContextHeader& m) {
  v(MsgType::kTracedRequest, m.trace_id, m.parent_span_id, m.sampled);
}

struct ErrorFrame {
  uint8_t code = 0;
  std::string message;
};

template <class V>
void Fields(V& v, ErrorFrame& m) {
  v(MsgType::kError, m.code, m.message);
}

}  // namespace

// ---- codec -----------------------------------------------------------------

template <class M>
Bytes Encode(const M& m) {
  BufferWriter out;
  Writer w(out);
  // The writer only reads; the lists take non-const references so that one
  // list serves both directions.
  Fields(w, const_cast<M&>(m));
  return out.Take();
}

template <class M>
Status Decode(ConstByteSpan frame, M* m) {
  BufferReader in(frame);
  Reader r(in);
  Fields(r, *m);
  return r.status();
}

#define CDSTORE_WIRE_MESSAGE(M)    \
  template Bytes Encode(const M& m); \
  template Status Decode(ConstByteSpan frame, M* m);
CDSTORE_WIRE_MESSAGE(FpQueryRequest)
CDSTORE_WIRE_MESSAGE(FpQueryReply)
CDSTORE_WIRE_MESSAGE(UploadSharesRequest)
CDSTORE_WIRE_MESSAGE(UploadSharesRequestView)
CDSTORE_WIRE_MESSAGE(UploadSharesReply)
CDSTORE_WIRE_MESSAGE(PutFileRequest)
CDSTORE_WIRE_MESSAGE(PutFileReply)
CDSTORE_WIRE_MESSAGE(GetFileRequest)
CDSTORE_WIRE_MESSAGE(GetFileReply)
CDSTORE_WIRE_MESSAGE(GetSharesRequest)
CDSTORE_WIRE_MESSAGE(GetSharesReply)
CDSTORE_WIRE_MESSAGE(GetSharesReplyView)
CDSTORE_WIRE_MESSAGE(DeleteFileRequest)
CDSTORE_WIRE_MESSAGE(DeleteFileReply)
CDSTORE_WIRE_MESSAGE(StatsRequest)
CDSTORE_WIRE_MESSAGE(StatsReply)
CDSTORE_WIRE_MESSAGE(GcRequest)
CDSTORE_WIRE_MESSAGE(GcReply)
CDSTORE_WIRE_MESSAGE(ListVersionsRequest)
CDSTORE_WIRE_MESSAGE(ListVersionsReply)
CDSTORE_WIRE_MESSAGE(DeleteVersionRequest)
CDSTORE_WIRE_MESSAGE(DeleteVersionReply)
CDSTORE_WIRE_MESSAGE(ApplyRetentionRequest)
CDSTORE_WIRE_MESSAGE(ApplyRetentionReply)
CDSTORE_WIRE_MESSAGE(ListPathsRequest)
CDSTORE_WIRE_MESSAGE(ListPathsReply)
CDSTORE_WIRE_MESSAGE(ApplyRetentionNamespaceRequest)
CDSTORE_WIRE_MESSAGE(ApplyRetentionNamespaceReply)
CDSTORE_WIRE_MESSAGE(GetMetricsRequest)
CDSTORE_WIRE_MESSAGE(GetMetricsReply)
CDSTORE_WIRE_MESSAGE(GetTracesRequest)
CDSTORE_WIRE_MESSAGE(GetTracesReply)
#undef CDSTORE_WIRE_MESSAGE

MsgType PeekType(ConstByteSpan frame) {
  if (frame.empty()) {
    return MsgType::kError;
  }
  return static_cast<MsgType>(frame[0]);
}

BufferWriter BeginGetSharesReply(size_t count) {
  BufferWriter out;
  Writer w(out);
  GetSharesReplyHeader header{ListLength{count}};
  Fields(w, header);
  return out;
}

void AppendShare(BufferWriter* frame, ConstByteSpan share) {
  Writer w(*frame);
  w(share);
}

void PutRecipeEntries(BufferWriter* out, const std::vector<RecipeEntry>& entries) {
  Writer w(*out);
  w(const_cast<std::vector<RecipeEntry>&>(entries));
}

Status GetRecipeEntries(BufferReader* in, std::vector<RecipeEntry>* entries) {
  Reader r(*in);
  r(*entries);
  return r.status();
}

// ---- trace-context envelope ------------------------------------------------

Bytes WrapTraced(const TraceContextHeader& ctx, ConstByteSpan inner) {
  BufferWriter out(inner.size() + 18);
  Writer w(out);
  Fields(w, const_cast<TraceContextHeader&>(ctx));
  out.PutRaw(inner);
  return out.Take();
}

Status UnwrapTraced(ConstByteSpan frame, TraceContextHeader* ctx, ConstByteSpan* inner) {
  BufferReader in(frame);
  Reader r(in);
  Fields(r, *ctx);
  RETURN_IF_ERROR(r.status());
  if (in.remaining() == 0) {
    return Status::Corruption("traced envelope carries no inner frame");
  }
  *inner = in.Remaining();
  return Status::Ok();
}

// ---- RPC names -------------------------------------------------------------

const char* RpcName(MsgType type) {
  // MsgType lists each request right before its reply, so (type + 1) / 2
  // indexes the pair's name; the envelope comes last.
  static constexpr const char* kNames[] = {
      "Error",                   "FpQuery",                 "UploadShares",
      "PutFile",                 "GetFile",                 "GetShares",
      "DeleteFile",              "Stats",                   "Gc",
      "ListVersions",            "DeleteVersion",           "ApplyRetention",
      "ListPaths",               "ApplyRetentionNamespace", "GetMetrics",
      "GetTraces",               "Traced"};
  static_assert(std::size(kNames) == kNumMsgTypes / 2 + 1);
  size_t t = static_cast<size_t>(type);
  return t < kNumMsgTypes ? kNames[(t + 1) / 2] : "Unknown";
}

// ---- errors ----------------------------------------------------------------

Bytes EncodeError(const Status& status) {
  return Encode(ErrorFrame{static_cast<uint8_t>(status.code()), status.message()});
}

Status DecodeIfError(ConstByteSpan frame) {
  if (PeekType(frame) != MsgType::kError) {
    return Status::Ok();
  }
  ErrorFrame error;
  RETURN_IF_ERROR(Decode(frame, &error));
  if (error.code == static_cast<uint8_t>(StatusCode::kOk) ||
      error.code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Corruption("error frame carries invalid status code " +
                              std::to_string(error.code));
  }
  return Status(static_cast<StatusCode>(error.code), error.message);
}

}  // namespace cdstore
