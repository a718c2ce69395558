// The one JSON-lines sink behind every append-only log a durable
// database keeps in its directory: metrics.log (StatsReporter),
// slowops.log (SlowOpLog) and events.log (EventLog).
//
// Policy, the same for all three:
//  - open-append-close per line: the file is never held open, so an
//    operator can rename or delete it at any moment and the next line
//    recreates it;
//  - a whole line lands in one buffered write, so a concurrent reader
//    never sees a torn record;
//  - with a size bound (DurabilityOptions::obs_log_max_bytes > 0), a
//    file already at or past the bound is renamed to `<path>.1`,
//    replacing any previous `.1`, before the next line — each log pair
//    bounds disk at ~2x the limit.

#ifndef LSTORE_OBS_JSON_LINES_H_
#define LSTORE_OBS_JSON_LINES_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace lstore {

/// Wall-clock milliseconds since the epoch (the `ts_ms` of every line).
uint64_t WallClockMs();

/// Escape `s` for embedding inside a JSON string literal.
std::string JsonEscape(std::string_view s);

class JsonLinesFile {
 public:
  /// `max_bytes` = 0: the file is never rotated.
  JsonLinesFile(std::string path, uint64_t max_bytes);

  JsonLinesFile(const JsonLinesFile&) = delete;
  JsonLinesFile& operator=(const JsonLinesFile&) = delete;

  /// Append `line` plus a newline (rotating first when due). Best
  /// effort: a file that cannot be opened loses the line.
  void Append(std::string_view line);

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  const uint64_t max_bytes_;
  std::mutex mu_;  ///< serializes rotate-and-append across writers
};

}  // namespace lstore

#endif  // LSTORE_OBS_JSON_LINES_H_
