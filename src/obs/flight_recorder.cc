#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/json_lines.h"

namespace lstore {

std::string RenderChromeTraceJson(std::vector<TraceSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[192];
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(s.name != nullptr ? s.name : "?");
    // Complete events with microsecond ts/dur (the unit trace viewers
    // expect); 3 decimals preserves the underlying nanoseconds.
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%" PRIu64 ",\"args\":{\"trace_id\":\"0x%" PRIx64
                  "\"}}",
                  static_cast<double>(s.t0_ns) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0, s.tid, s.trace_id);
    out += buf;
  }
  out += "]}";
  return out;
}

#if LSTORE_TRACE_ENABLED

namespace {

// Liveness registry for recorders, so a thread-exit holder (or a
// holder switching recorders) never releases a ring into a recorder
// that was already destroyed. Instance() is never destroyed, so in
// production this set holds exactly one live entry; tests add theirs.
// Lock order: registry mutex, then FlightRecorder::mu_.
std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<FlightRecorder*>& LiveRecorders() {
  static std::vector<FlightRecorder*>* v = new std::vector<FlightRecorder*>;
  return *v;
}

bool IsLive(FlightRecorder* r) {
  std::vector<FlightRecorder*>& live = LiveRecorders();
  return std::find(live.begin(), live.end(), r) != live.end();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// One span ring, single writer (the owning thread), lock-free readers.
// Each slot is a seqlock: `seq` is odd while the writer is mid-publish,
// and bumps by 2 per completed write; a reader that sees an odd or
// changed sequence skips the slot. All payload fields are relaxed
// atomics so the scheme is data-race-free (and TSan-clean) by
// construction; the fences order payload against `seq`.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<uint32_t> seq{0};  ///< 0 = never written
    std::atomic<uint64_t> trace_id{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> t0_ns{0};
    std::atomic<uint64_t> dur_ns{0};
  };

  Ring(size_t cap, uint64_t ord)
      : capacity(cap), mask(cap - 1), ordinal(ord), slots(new Slot[cap]) {}

  void Write(uint64_t trace_id, const char* name, uint64_t t0_ns,
             uint64_t dur_ns) {
    uint64_t h = head.load(std::memory_order_relaxed);
    Slot& s = slots[h & mask];
    uint32_t seq = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.trace_id.store(trace_id, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_relaxed);
    s.t0_ns.store(t0_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.seq.store(seq + 2, std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  /// Append every readable span to `out`. Slots being overwritten at
  /// this instant are skipped (one span per writing thread, at most) —
  /// snapshots are best-effort by design, never blocking the writer.
  void Read(std::vector<TraceSpan>* out) const {
    for (size_t i = 0; i < capacity; ++i) {
      const Slot& s = slots[i];
      uint32_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;
      TraceSpan span;
      span.trace_id = s.trace_id.load(std::memory_order_relaxed);
      span.name = s.name.load(std::memory_order_relaxed);
      span.t0_ns = s.t0_ns.load(std::memory_order_relaxed);
      span.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      uint32_t s2 = s.seq.load(std::memory_order_relaxed);
      if (s1 != s2) continue;
      span.tid = ordinal;
      out->push_back(span);
    }
  }

  const size_t capacity;
  const size_t mask;
  const uint64_t ordinal;
  std::unique_ptr<Slot[]> slots;
  std::atomic<uint64_t> head{0};  ///< spans ever written (monotonic)
};

namespace {

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Binds a thread to its ring in one specific recorder, and at thread
// exit returns the ring to that recorder's free list (if the recorder
// is still alive) — so detached-thread churn, e.g. the server's
// per-connection readers, reuses rings instead of growing the registry
// without bound. `owner_id` disambiguates address reuse: a recorder
// destroyed and another allocated at the same address gets a different
// id, so a stale binding is always detected and never written through.
struct ThreadRingHolder {
  FlightRecorder* owner = nullptr;
  uint64_t owner_id = 0;
  FlightRecorder::Ring* ring = nullptr;

  ~ThreadRingHolder() {
    std::lock_guard<std::mutex> reg(RegistryMutex());
    if (ring != nullptr && IsLive(owner) &&
        owner->id_for_bindings() == owner_id) {
      owner->ReleaseRing(ring);
    }
  }
};

namespace {
thread_local ThreadRingHolder g_thread_ring;
}  // namespace

FlightRecorder& FlightRecorder::Instance() {
  // Intentionally leaked: detached threads may record or release rings
  // during any phase of shutdown.
  static FlightRecorder* r = new FlightRecorder();
  return *r;
}

FlightRecorder::FlightRecorder(size_t ring_capacity)
    : ring_capacity_(RoundUpPow2(ring_capacity < 2 ? 2 : ring_capacity)),
      id_(NextRecorderId()) {
  std::lock_guard<std::mutex> reg(RegistryMutex());
  LiveRecorders().push_back(this);
}

FlightRecorder::~FlightRecorder() {
  std::lock_guard<std::mutex> reg(RegistryMutex());
  std::vector<FlightRecorder*>& live = LiveRecorders();
  live.erase(std::remove(live.begin(), live.end(), this), live.end());
}

FlightRecorder::Ring* FlightRecorder::AcquireRing() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    Ring* r = free_.back();
    free_.pop_back();
    return r;
  }
  rings_.push_back(
      std::make_unique<Ring>(ring_capacity_, static_cast<uint64_t>(
                                                 rings_.size())));
  return rings_.back().get();
}

void FlightRecorder::ReleaseRing(Ring* ring) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(ring);
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  ThreadRingHolder& b = g_thread_ring;
  if (b.owner == this && b.owner_id == id_) return b.ring;
  // Bound to a different (or dead) recorder: return that ring if its
  // owner still lives, then bind here. Rare — only recorder switches.
  {
    std::lock_guard<std::mutex> reg(RegistryMutex());
    if (b.ring != nullptr && IsLive(b.owner) &&
        b.owner->id_for_bindings() == b.owner_id) {
      b.owner->ReleaseRing(b.ring);
    }
  }
  b.owner = this;
  b.owner_id = id_;
  b.ring = AcquireRing();
  return b.ring;
}

void FlightRecorder::Record(uint64_t trace_id, const char* name,
                            uint64_t t0_ns, uint64_t dur_ns) {
  RingForThisThread()->Write(trace_id, name, t0_ns, dur_ns);
}

std::vector<TraceSpan> FlightRecorder::Snapshot() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Ring>& r : rings_) r->Read(&out);
  }
  std::sort(out.begin(), out.end(), [](const TraceSpan& a, const TraceSpan& b) {
    return a.t0_ns < b.t0_ns;
  });
  return out;
}

std::vector<TraceSpan> FlightRecorder::SnapshotTrace(uint64_t trace_id) const {
  std::vector<TraceSpan> all = Snapshot();
  std::vector<TraceSpan> out;
  for (const TraceSpan& s : all) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::unique_ptr<Ring>& r : rings_) {
    uint64_t head = r->head.load(std::memory_order_relaxed);
    if (head > r->capacity) total += head - r->capacity;
  }
  return total;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::unique_ptr<Ring>& r : rings_) {
    total += r->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::string FlightRecorder::RenderChromeTrace() const {
  return RenderChromeTraceJson(Snapshot());
}

#endif  // LSTORE_TRACE_ENABLED

}  // namespace lstore
