#include "obs/slow_op_log.h"

#include <cinttypes>
#include <cstdio>

namespace lstore {

SlowOpLog::SlowOpLog(std::string path, uint64_t threshold_us,
                     Counter* slow_ops_total, uint64_t max_bytes)
    : file_(std::move(path), max_bytes),
      threshold_ns_(threshold_us * 1000),
      slow_ops_total_(slow_ops_total) {}

void SlowOpLog::Dump(uint64_t trace_id, const char* op, uint32_t request_id,
                     uint64_t total_ns,
                     const std::vector<TraceSpan>& spans) {
  std::string line;
  line.reserve(256 + spans.size() * 64);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"ts_ms\":%" PRIu64 ",\"op\":\"%s\",\"request_id\":%u,"
                "\"trace_id\":\"0x%" PRIx64 "\",\"total_us\":%.3f,\"spans\":[",
                WallClockMs(), op != nullptr ? op : "?", request_id, trace_id,
                static_cast<double>(total_ns) / 1000.0);
  line += buf;
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) line += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"t0_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                  ",\"tid\":%" PRIu64 "}",
                  s.name != nullptr ? s.name : "?", s.t0_ns, s.dur_ns, s.tid);
    line += buf;
  }
  line += "]}";
  file_.Append(line);
  if (slow_ops_total_ != nullptr) slow_ops_total_->Add(1);
}

}  // namespace lstore
