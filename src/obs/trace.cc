#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "src/util/logging.h"

namespace cdstore {

namespace {

// The thread's current trace parent. Plain thread-local: only the owning
// thread reads or writes it.
thread_local TraceContext t_current_trace;

// One-entry per-thread ring cache keyed by (tracer address, generation):
// the generation check keeps a new Tracer constructed at a freed one's
// address from resurrecting a dangling ring pointer.
struct RingCache {
  const Tracer* tracer = nullptr;
  uint64_t generation = 0;
  trace_internal::ThreadRing* ring = nullptr;
};
thread_local RingCache t_ring_cache;

std::atomic<uint64_t> g_tracer_generation{1};

uint32_t CurrentTid() {
  return static_cast<uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

void PackRecord(const SpanRecord& rec, uint64_t (&w)[trace_internal::kSpanWords]) {
  w[0] = rec.trace_id;
  w[1] = rec.span_id;
  w[2] = rec.parent_id;
  w[3] = rec.start_ns;
  w[4] = rec.dur_ns;
  w[5] = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(rec.name));
  w[6] = rec.tid;
  static_assert(sizeof(rec.annot) == trace_internal::kAnnotBytes, "annot packing");
  std::memcpy(&w[7], rec.annot, trace_internal::kAnnotBytes);
}

void UnpackRecord(const uint64_t (&w)[trace_internal::kSpanWords], SpanRecord* rec) {
  rec->trace_id = w[0];
  rec->span_id = w[1];
  rec->parent_id = w[2];
  rec->start_ns = w[3];
  rec->dur_ns = w[4];
  rec->name = reinterpret_cast<const char*>(static_cast<uintptr_t>(w[5]));
  rec->tid = static_cast<uint32_t>(w[6]);
  std::memcpy(rec->annot, &w[7], trace_internal::kAnnotBytes);
  rec->annot[trace_internal::kAnnotBytes - 1] = '\0';
}

// Fence-free seqlock (Boehm, "Can Seqlocks Get Along with Programming
// Language Memory Models?", MSPC 2012), so ThreadSanitizer models every
// ordering it relies on.
// Writer — owner thread only. Marks the slot open (odd), writes the payload
// with release stores, publishes (even). A reader that acquires any new
// payload word therefore also sees the odd mark, and discards the copy.
void WriteSlot(trace_internal::Slot& slot, const SpanRecord& rec) {
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  uint64_t w[trace_internal::kSpanWords];
  PackRecord(rec, w);
  for (size_t i = 0; i < trace_internal::kSpanWords; ++i) {
    slot.w[i].store(w[i], std::memory_order_release);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
}

// Seqlock reader: true when a stable, published record was copied out. The
// acquire loads of the payload keep the closing seq load after them.
bool ReadSlot(const trace_internal::Slot& slot, SpanRecord* rec) {
  uint64_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) {
    return false;
  }
  uint64_t w[trace_internal::kSpanWords];
  for (size_t i = 0; i < trace_internal::kSpanWords; ++i) {
    w[i] = slot.w[i].load(std::memory_order_acquire);
  }
  if (slot.seq.load(std::memory_order_relaxed) != s1) {
    return false;
  }
  UnpackRecord(w, rec);
  return true;
}

}  // namespace

TraceContext CurrentTraceContext() { return t_current_trace; }

namespace trace_internal {

ThreadRing::ThreadRing(size_t slot_count, uint32_t tid_in) {
  size_t n = RoundUpPow2(std::max<size_t>(slot_count, 2));
  slots = std::make_unique<Slot[]>(n);
  mask = n - 1;
  next = 0;
  tid = tid_in;
}

}  // namespace trace_internal

Tracer::Tracer(const TraceOptions& options)
    : opts_(options), generation_(g_tracer_generation.fetch_add(1, std::memory_order_relaxed)) {
  // Locally unique id base; mixing the clock and the address keeps two
  // processes (a CLI client and a TCP server) from colliding in practice.
  trace_id_base_ = (TraceNowNs() << 16) ^ (reinterpret_cast<uintptr_t>(this) >> 4) ^
                   (generation_ << 48);
  if (opts_.metrics != nullptr) {
    m_recorded_ = opts_.metrics->GetCounter("cdstore_trace_spans_recorded_total");
    m_dropped_ = opts_.metrics->GetCounter("cdstore_trace_spans_dropped_total");
    m_unsampled_ = opts_.metrics->GetCounter("cdstore_trace_unsampled_total");
    m_flight_evicted_ = opts_.metrics->GetCounter("cdstore_trace_flight_evictions_total");
    m_flight_occupancy_ = opts_.metrics->GetGauge("cdstore_trace_flight_occupancy");
  }
  // Logs carry the active trace id from now on (idempotent install).
  SetLogTraceIdProvider([]() { return t_current_trace.active() ? t_current_trace.trace_id : 0; });
}

Tracer::~Tracer() = default;

uint64_t Tracer::NextTraceId() {
  uint64_t id = trace_id_base_ + next_trace_seq_.fetch_add(1, std::memory_order_relaxed);
  return id == 0 ? 1 : id;
}

bool Tracer::SampleNext() {
  uint64_t n = opts_.sample_every_n;
  if (n == 0) {
    return false;
  }
  if (n == 1) {
    return true;
  }
  return sample_seq_.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

void Tracer::CountUnsampled() {
  unsampled_.fetch_add(1, std::memory_order_relaxed);
  if (m_unsampled_ != nullptr) {
    m_unsampled_->Inc();
  }
}

trace_internal::ThreadRing* Tracer::Ring() {
  RingCache& cache = t_ring_cache;
  if (cache.tracer == this && cache.generation == generation_) {
    return cache.ring;
  }
  trace_internal::ThreadRing* ring = RegisterRing();
  cache = RingCache{this, generation_, ring};
  return ring;
}

trace_internal::ThreadRing* Tracer::RegisterRing() {
  MutexLock lock(rings_mu_);
  std::thread::id self = std::this_thread::get_id();
  auto it = ring_by_thread_.find(self);
  if (it != ring_by_thread_.end()) {
    return it->second;
  }
  rings_.push_back(
      std::make_unique<trace_internal::ThreadRing>(opts_.ring_slots, CurrentTid()));
  trace_internal::ThreadRing* ring = rings_.back().get();
  ring_by_thread_[self] = ring;
  return ring;
}

void Tracer::Record(const SpanRecord& rec) {
  trace_internal::ThreadRing* ring = Ring();
  bool overwrite = ring->next > ring->mask;  // slot already held a span
  WriteSlot(ring->slots[ring->next & ring->mask], rec);
  ++ring->next;
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
  if (m_recorded_ != nullptr) {
    m_recorded_->Inc();
  }
  if (overwrite) {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (m_dropped_ != nullptr) {
      m_dropped_->Inc();
    }
  }
}

void Tracer::FinishRequest(uint64_t trace_id, const char* root, uint64_t dur_ns,
                           bool sampled) {
  if (opts_.flight_recorder_k == 0) {
    return;
  }
  bool evicted = false;
  size_t occupancy = 0;
  {
    MutexLock lock(flight_mu_);
    if (flight_.size() < opts_.flight_recorder_k) {
      flight_.push_back(FlightEntry{trace_id, dur_ns, sampled, root});
    } else {
      auto min_it = std::min_element(
          flight_.begin(), flight_.end(),
          [](const FlightEntry& a, const FlightEntry& b) { return a.dur_ns < b.dur_ns; });
      // Either the incumbent minimum or the new request is shed; both count.
      evicted = true;
      if (min_it->dur_ns < dur_ns) {
        *min_it = FlightEntry{trace_id, dur_ns, sampled, root};
      }
    }
    occupancy = flight_.size();
  }
  if (evicted) {
    flight_evictions_.fetch_add(1, std::memory_order_relaxed);
    if (m_flight_evicted_ != nullptr) {
      m_flight_evicted_->Inc();
    }
  }
  if (m_flight_occupancy_ != nullptr) {
    m_flight_occupancy_->Set(static_cast<int64_t>(occupancy));
  }
}

TraceDump Tracer::Dump() const {
  TraceDump dump;
  {
    MutexLock lock(rings_mu_);
    for (const auto& ring : rings_) {
      for (size_t i = 0; i <= ring->mask; ++i) {
        SpanRecord rec;
        if (!ReadSlot(ring->slots[i], &rec) || rec.trace_id == 0) {
          continue;
        }
        TraceSpanSample s;
        s.trace_id = rec.trace_id;
        s.span_id = rec.span_id;
        s.parent_id = rec.parent_id;
        s.start_ns = rec.start_ns;
        s.dur_ns = rec.dur_ns;
        s.tid = rec.tid;
        s.name = rec.name != nullptr ? rec.name : "";
        s.annot = rec.annot;
        dump.spans.push_back(std::move(s));
      }
    }
  }
  std::sort(dump.spans.begin(), dump.spans.end(),
            [](const TraceSpanSample& a, const TraceSpanSample& b) {
              if (a.trace_id != b.trace_id) {
                return a.trace_id < b.trace_id;
              }
              if (a.start_ns != b.start_ns) {
                return a.start_ns < b.start_ns;
              }
              return a.span_id < b.span_id;
            });
  {
    MutexLock lock(flight_mu_);
    for (const FlightEntry& e : flight_) {
      SlowTraceSample s;
      s.trace_id = e.trace_id;
      s.dur_ns = e.dur_ns;
      s.sampled = e.sampled ? 1 : 0;
      s.root = e.root != nullptr ? e.root : "";
      dump.slow.push_back(std::move(s));
    }
  }
  std::sort(dump.slow.begin(), dump.slow.end(),
            [](const SlowTraceSample& a, const SlowTraceSample& b) {
              return a.dur_ns > b.dur_ns;
            });
  dump.spans_recorded = spans_recorded();
  dump.spans_dropped = spans_dropped();
  dump.unsampled = unsampled();
  dump.flight_evictions = flight_evictions();
  return dump;
}

// --- TraceRequest ----------------------------------------------------------

void TraceRequest::Start(Tracer* tracer, const char* name) {
  End();
  if (tracer == nullptr) {
    return;
  }
  tracer_ = tracer;
  name_ = name;
  start_ns_ = TraceNowNs();
  bool sampled = tracer->SampleNext();
  if (!sampled) {
    tracer->CountUnsampled();
  }
  ctx_ = TraceContext{tracer->NextTraceId(), tracer->NextSpanId(), sampled};
}

void TraceRequest::End() {
  if (tracer_ == nullptr) {
    return;
  }
  uint64_t dur = TraceNowNs() - start_ns_;
  bool force = !ctx_.sampled && tracer_->options().slow_threshold_ns != 0 &&
               dur >= tracer_->options().slow_threshold_ns;
  if (ctx_.sampled || force) {
    SpanRecord rec;
    rec.trace_id = ctx_.trace_id;
    rec.span_id = ctx_.span_id;
    rec.parent_id = 0;
    rec.start_ns = start_ns_;
    rec.dur_ns = dur;
    rec.name = name_;
    rec.tid = CurrentTid();
    if (force) {
      std::snprintf(rec.annot, sizeof(rec.annot), "%s", "force_sampled");
    }
    tracer_->Record(rec);
  }
  tracer_->FinishRequest(ctx_.trace_id, name_, dur, ctx_.sampled || force);
  tracer_ = nullptr;
  ctx_ = TraceContext{};
}

// --- ScopedTraceParent / ScopedSpan ----------------------------------------

ScopedTraceParent::ScopedTraceParent(const TraceContext& ctx) : prev_(t_current_trace) {
  t_current_trace = ctx;
}

ScopedTraceParent::~ScopedTraceParent() { t_current_trace = prev_; }

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : ScopedSpan(tracer, name, t_current_trace) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const TraceContext& parent) {
  if (tracer == nullptr || !parent.active()) {
    return;
  }
  tracer_ = tracer;
  name_ = name;
  parent_id_ = parent.span_id;
  ctx_ = TraceContext{parent.trace_id, tracer->NextSpanId(), true};
  prev_ = t_current_trace;
  t_current_trace = ctx_;
  start_ns_ = TraceNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  SpanRecord rec;
  rec.trace_id = ctx_.trace_id;
  rec.span_id = ctx_.span_id;
  rec.parent_id = parent_id_;
  rec.start_ns = start_ns_;
  rec.dur_ns = TraceNowNs() - start_ns_;
  rec.name = name_;
  rec.tid = CurrentTid();
  std::memcpy(rec.annot, annot_, sizeof(rec.annot));
  tracer_->Record(rec);
  t_current_trace = prev_;
}

void ScopedSpan::Annotate(const char* text) {
  if (tracer_ == nullptr) {
    return;
  }
  std::snprintf(annot_, sizeof(annot_), "%s", text);
}

void ScopedSpan::AnnotateKV(const char* key, uint64_t value) {
  if (tracer_ == nullptr) {
    return;
  }
  size_t len = std::strlen(annot_);
  if (len >= sizeof(annot_) - 1) {
    return;
  }
  std::snprintf(annot_ + len, sizeof(annot_) - len, "%s%s=%llu", len > 0 ? " " : "", key,
                static_cast<unsigned long long>(value));
}

// --- rendering -------------------------------------------------------------

namespace {

void AppendJsonEscaped(const std::string& v, std::string* out) {
  for (char c : v) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
}

std::string HexId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

std::string HumanDuration(uint64_t ns) {
  char buf[32];
  if (ns < 1000ull * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1000ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

}  // namespace

void AppendChromeTraceEvents(const std::vector<TraceSpanSample>& spans, int pid,
                             bool* first, std::string* out) {
  for (const TraceSpanSample& s : spans) {
    if (!*first) {
      *out += ",\n";
    }
    *first = false;
    char head[192];
    std::snprintf(head, sizeof(head),
                  "{\"ph\":\"X\",\"cat\":\"cdstore\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%d,\"tid\":%llu,\"name\":\"",
                  static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                  pid, static_cast<unsigned long long>(s.tid));
    *out += head;
    AppendJsonEscaped(s.name, out);
    *out += "\",\"args\":{\"trace_id\":\"" + HexId(s.trace_id) + "\",\"span_id\":\"" +
            HexId(s.span_id) + "\",\"parent_id\":\"" + HexId(s.parent_id) + "\",\"annot\":\"";
    AppendJsonEscaped(s.annot, out);
    *out += "\"}}";
  }
}

std::string ChromeTraceJson(const std::vector<TraceSpanSample>& spans, int pid) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  AppendChromeTraceEvents(spans, pid, &first, &out);
  out += "\n]}\n";
  return out;
}

std::string FormatTraceTree(const std::vector<TraceSpanSample>& spans) {
  std::string out;
  // Group by trace, then nest by parent links. Spans whose parent is not in
  // the dump (e.g. a server-side dump of a client-rooted trace) print as
  // roots, so partial dumps stay readable.
  size_t begin = 0;
  while (begin < spans.size()) {
    size_t end = begin;
    while (end < spans.size() && spans[end].trace_id == spans[begin].trace_id) {
      ++end;
    }
    out += "trace " + HexId(spans[begin].trace_id) + " (" + std::to_string(end - begin) +
           " span" + (end - begin == 1 ? "" : "s") + ")\n";
    std::map<uint64_t, std::vector<size_t>> children;  // parent span_id -> idx
    std::map<uint64_t, bool> present;
    for (size_t i = begin; i < end; ++i) {
      present[spans[i].span_id] = true;
    }
    std::vector<size_t> roots;
    for (size_t i = begin; i < end; ++i) {
      if (spans[i].parent_id != 0 && present.count(spans[i].parent_id) > 0) {
        children[spans[i].parent_id].push_back(i);
      } else {
        roots.push_back(i);
      }
    }
    // Depth-first, children already in start_ns order (input is sorted).
    std::function<void(size_t, int)> emit = [&](size_t idx, int depth) {
      const TraceSpanSample& s = spans[idx];
      out += std::string(static_cast<size_t>(depth) * 2 + 2, ' ');
      out += s.name + " " + HumanDuration(s.dur_ns);
      if (!s.annot.empty()) {
        out += " [" + s.annot + "]";
      }
      out += "\n";
      auto it = children.find(s.span_id);
      if (it != children.end()) {
        for (size_t child : it->second) {
          emit(child, depth + 1);
        }
      }
    };
    for (size_t r : roots) {
      emit(r, 0);
    }
    begin = end;
  }
  return out;
}

}  // namespace cdstore
