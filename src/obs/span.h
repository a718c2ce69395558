// Request-scoped tracing and stage timing: trace ids, thread-local
// propagation, and the one timing primitive (`Stage`) that feeds both
// a latency histogram and the flight recorder (src/obs/flight_recorder.h).
//
// A trace id is minted once at the request's origin (client stamping a
// wire frame, or the harness wrapping an in-process op), travels with
// the request across threads (wire header field → server Request →
// worker thread-local), and tags every span the request touches.
// Propagation inside a thread is a thread-local:
//
//   TraceContext::Scope scope(trace_id);   // set for this stage
//   ...                                     // anything called here
//   uint64_t id = TraceContext::Current();  // sees the id (0 = none)
//
// Every engine stage is timed by one RAII scope. It reads the clock at
// entry and at exit — and only when there is somewhere to put the
// duration — then records that one duration into the histogram and,
// for a traced thread, as a closed span:
//
//   { Stage s(registry_hist, "log_append");  DoWork(); }
//   Stage s(hist, nullptr);  ...;  uint64_t ns = s.End();  // early close
//
// Windows that open on one thread and close on another (a server
// request's queue wait) stamp NowNanos() by hand and close with
// RecordSpan.
//
// All of it compiles out under LSTORE_TRACING=OFF: Current() returns 0,
// Scope and Stage are empty, RecordSpan is a no-op — call sites need no
// #if. Span names must be static string literals (the recorder stores
// the pointer).

#ifndef LSTORE_OBS_SPAN_H_
#define LSTORE_OBS_SPAN_H_

#include <atomic>
#include <cstdint>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace lstore {

#if LSTORE_TRACE_ENABLED

namespace internal {
inline thread_local uint64_t g_current_trace_id = 0;
}  // namespace internal

class TraceContext {
 public:
  /// The trace id active on this thread; 0 = untraced.
  static uint64_t Current() { return internal::g_current_trace_id; }

  /// Mint a fresh process-unique nonzero trace id.
  static uint64_t NewTraceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  /// RAII: set the thread's trace id for a stage, restore on exit
  /// (nesting-safe; Scope(0) deliberately clears — e.g. a worker
  /// picking up an untraced request after a traced one).
  class Scope {
   public:
    explicit Scope(uint64_t trace_id)
        : saved_(internal::g_current_trace_id) {
      internal::g_current_trace_id = trace_id;
    }
    ~Scope() { internal::g_current_trace_id = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    uint64_t saved_;
  };
};

/// Record one closed span for `trace_id` into the flight recorder.
/// No-op when trace_id == 0, so call sites can record unconditionally
/// on paths that serve both traced and untraced requests.
inline void RecordSpan(uint64_t trace_id, const char* name, uint64_t t0_ns,
                       uint64_t dur_ns) {
  if (trace_id == 0) return;
  FlightRecorder::Instance().Record(trace_id, name, t0_ns, dur_ns);
}

/// One timed engine stage. `hist` (nullable) receives the duration;
/// `span` (nullable, static literal) names the span recorded for the
/// thread's current trace, captured at construction. With neither a
/// histogram nor a traced span the stage never reads the clock.
class Stage {
 public:
  Stage(Histogram* hist, const char* span)
      : hist_(hist),
        span_(span),
        trace_id_(span != nullptr ? TraceContext::Current() : 0),
        t0_ns_(hist != nullptr || trace_id_ != 0 ? NowNanos() : 0) {}
  ~Stage() { End(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Close the stage now, recording once into both sinks; later calls
  /// (and the destructor) record nothing more. Returns the duration,
  /// 0 when the stage was untimed or cancelled.
  uint64_t End() {
    if (t0_ns_ != 0 && !closed_) {
      closed_ = true;
      dur_ns_ = NowNanos() - t0_ns_;
      if (hist_ != nullptr) hist_->Record(dur_ns_);
      RecordSpan(trace_id_, span_, t0_ns_, dur_ns_);
    }
    return dur_ns_;
  }

  /// Drop the sample: the stage turned out to be a no-op (e.g. a merge
  /// with nothing to merge) and must not dilute the distribution.
  void Cancel() { closed_ = true; }

 private:
  Histogram* const hist_;
  const char* const span_;
  const uint64_t trace_id_;
  const uint64_t t0_ns_;
  uint64_t dur_ns_ = 0;
  bool closed_ = false;
};

#else  // !LSTORE_TRACE_ENABLED

class TraceContext {
 public:
  static uint64_t Current() { return 0; }
  static uint64_t NewTraceId() { return 0; }
  class Scope {
   public:
    explicit Scope(uint64_t) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };
};

inline void RecordSpan(uint64_t, const char*, uint64_t, uint64_t) {}

class Stage {
 public:
  Stage(Histogram*, const char*) {}
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  uint64_t End() { return 0; }
  void Cancel() {}
};

#endif  // LSTORE_TRACE_ENABLED

}  // namespace lstore

#endif  // LSTORE_OBS_SPAN_H_
