// Structured engine event log: lifecycle transitions (checkpoint
// begin/end, log truncation, archive seal, retention eviction,
// buffer-pool budget pressure, admission-control engage/disengage,
// watchdog verdict changes, server start/stop) recorded as typed
// events into a bounded in-memory ring AND — on a durable database —
// appended as JSON lines to <dir>/events.log.
//
// Line schema (one object per line, append-only):
//
//   {"ts_ms":<wall clock>,"severity":"info|warn|error",
//    "actor":"<subsystem>","kind":"<event kind>", <fields...>}
//
// `fields` is a pre-rendered JSON fragment (`"key":value,...`) the
// emitter supplies, spliced into the top-level object — events stay
// flat and grep-able. The file goes through the shared JSON-lines
// writer (src/obs/json_lines.h: open-append-close, size rotation to
// `<path>.1`). Events are rare (lifecycle edges, not per-request), so
// a mutex-guarded ring is plenty — nothing here is on a hot path.

#ifndef LSTORE_OBS_EVENT_LOG_H_
#define LSTORE_OBS_EVENT_LOG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json_lines.h"
#include "obs/metrics.h"

namespace lstore {

enum class EventSeverity : uint8_t {
  kInfo = 0,
  kWarn = 1,
  kError = 2,
};

/// Stable lowercase name ("info" / "warn" / "error").
const char* EventSeverityName(EventSeverity sev);

struct Event {
  uint64_t ts_ms = 0;  ///< wall-clock milliseconds since epoch
  EventSeverity severity = EventSeverity::kInfo;
  std::string actor;   ///< emitting subsystem ("checkpointer", "server", ...)
  std::string kind;    ///< event kind ("checkpoint_begin", "watchdog", ...)
  /// JSON fragment without braces (`"checkpoint_id":3,"tables":2`);
  /// empty = no extra fields. Spliced verbatim into the rendered line,
  /// so emitters must pass valid JSON key/value pairs.
  std::string fields;
};

/// Render one event as its JSON line (no trailing newline).
std::string RenderEventJson(const Event& e);

class EventLog {
 public:
  /// Ring-only until Configure() attaches a file.
  explicit EventLog(size_t ring_capacity = 256);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Attach (or replace) the append-only file sink and its rotation
  /// bound; called once at Database::Open before any emitter runs.
  /// `events_total` (nullable) is incremented once per emitted event;
  /// `ring_capacity` > 0 resizes the ring.
  void Configure(std::string path, uint64_t max_bytes,
                 Counter* events_total = nullptr, size_t ring_capacity = 0);

  /// Record one event: ring (evicting the oldest past capacity) plus
  /// one JSON line to the file when configured.
  void Emit(EventSeverity severity, std::string actor, std::string kind,
            std::string fields = std::string());

  /// The newest `max` retained events at or above `min_severity`,
  /// oldest first.
  std::vector<Event> Recent(size_t max,
                            EventSeverity min_severity =
                                EventSeverity::kInfo) const;

  /// Events emitted over the log's lifetime (ring evictions included).
  uint64_t total() const;

  std::string path() const;

 private:
  size_t ring_capacity_;
  mutable std::mutex mu_;
  std::deque<Event> ring_;
  uint64_t total_ = 0;
  std::shared_ptr<JsonLinesFile> file_;  ///< null = ring only
  Counter* events_total_ = nullptr;
};

}  // namespace lstore

#endif  // LSTORE_OBS_EVENT_LOG_H_
