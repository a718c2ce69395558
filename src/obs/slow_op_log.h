// Slow-op log: when a traced request's total latency exceeds
// DurabilityOptions::slow_op_threshold_us, its assembled span timeline
// is dumped as one JSON line to <dir>/slowops.log — so the tail of the
// latency distribution explains itself without anyone having been
// watching.
//
// Line schema (one object per line, append-only):
//
//   {"ts_ms":<wall clock>,"op":"<op name>","request_id":<u32>,
//    "trace_id":"0x<hex>","total_us":<double>,
//    "spans":[{"name":"...","t0_ns":<u64>,"dur_ns":<u64>,"tid":<u64>},...]}
//
// Span t0s are monotonic-clock nanoseconds (the recorder's clock), so
// offsets *within* a line are exact; ts_ms anchors the line in wall
// time. Lines go through the shared JSON-lines writer
// (src/obs/json_lines.h), so `mv slowops.log slowops.log.1` just works.
//
// This class compiles in every build (it only needs the unconditional
// TraceSpan struct); under LSTORE_TRACING=OFF no caller ever has spans
// to dump, so it is simply never constructed.

#ifndef LSTORE_OBS_SLOW_OP_LOG_H_
#define LSTORE_OBS_SLOW_OP_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json_lines.h"
#include "obs/metrics.h"

namespace lstore {

class SlowOpLog {
 public:
  /// `threshold_us` must be > 0 (the owner gates construction on it).
  /// `slow_ops_total` (nullable) is incremented once per dumped line.
  /// With `max_bytes` > 0 the file rotates to <path>.1 once it
  /// reaches the bound (DurabilityOptions::obs_log_max_bytes).
  SlowOpLog(std::string path, uint64_t threshold_us, Counter* slow_ops_total,
            uint64_t max_bytes = 0);

  SlowOpLog(const SlowOpLog&) = delete;
  SlowOpLog& operator=(const SlowOpLog&) = delete;

  /// The dump threshold in nanoseconds (callers compare before paying
  /// for the span snapshot).
  uint64_t threshold_ns() const { return threshold_ns_; }

  /// Append one slow-op line. `spans` is the request's timeline
  /// (typically FlightRecorder::SnapshotTrace(trace_id)); `op` must be
  /// a static or otherwise outliving string.
  void Dump(uint64_t trace_id, const char* op, uint32_t request_id,
            uint64_t total_ns, const std::vector<TraceSpan>& spans);

  const std::string& path() const { return file_.path(); }

 private:
  JsonLinesFile file_;
  const uint64_t threshold_ns_;
  Counter* const slow_ops_total_;
};

}  // namespace lstore

#endif  // LSTORE_OBS_SLOW_OP_LOG_H_
