#include "obs/event_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace lstore {

const char* EventSeverityName(EventSeverity sev) {
  switch (sev) {
    case EventSeverity::kInfo: return "info";
    case EventSeverity::kWarn: return "warn";
    case EventSeverity::kError: return "error";
  }
  return "info";
}

std::string RenderEventJson(const Event& e) {
  std::string line;
  line.reserve(96 + e.fields.size());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"ts_ms\":%" PRIu64 ",", e.ts_ms);
  line += buf;
  line += "\"severity\":\"";
  line += EventSeverityName(e.severity);
  line += "\",\"actor\":\"";
  line += JsonEscape(e.actor);
  line += "\",\"kind\":\"";
  line += JsonEscape(e.kind);
  line += '"';
  if (!e.fields.empty()) {
    line += ',';
    line += e.fields;
  }
  line += '}';
  return line;
}

EventLog::EventLog(size_t ring_capacity)
    : ring_capacity_(ring_capacity > 0 ? ring_capacity : 1) {}

void EventLog::Configure(std::string path, uint64_t max_bytes,
                         Counter* events_total, size_t ring_capacity) {
  std::lock_guard<std::mutex> g(mu_);
  file_ = std::make_shared<JsonLinesFile>(std::move(path), max_bytes);
  events_total_ = events_total;
  if (ring_capacity > 0) {
    ring_capacity_ = ring_capacity;
    while (ring_.size() > ring_capacity_) ring_.pop_front();
  }
}

void EventLog::Emit(EventSeverity severity, std::string actor,
                    std::string kind, std::string fields) {
  Event e;
  e.ts_ms = WallClockMs();
  e.severity = severity;
  e.actor = std::move(actor);
  e.kind = std::move(kind);
  e.fields = std::move(fields);

  std::string line;
  std::shared_ptr<JsonLinesFile> file;
  Counter* counter = nullptr;
  {
    std::lock_guard<std::mutex> g(mu_);
    ++total_;
    counter = events_total_;
    file = file_;
    if (file != nullptr) line = RenderEventJson(e);
    ring_.push_back(std::move(e));
    while (ring_.size() > ring_capacity_) ring_.pop_front();
  }
  // File I/O outside the ring lock: emitters (checkpointer, watchdog,
  // server) must never serialize on a disk write they didn't issue.
  if (file != nullptr) file->Append(line);
  if (counter != nullptr) counter->Increment();
}

std::vector<Event> EventLog::Recent(size_t max,
                                    EventSeverity min_severity) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Event> out;
  // Walk newest-to-oldest collecting matches, then restore order.
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < max;
       ++it) {
    if (it->severity >= min_severity) out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

uint64_t EventLog::total() const {
  std::lock_guard<std::mutex> g(mu_);
  return total_;
}

std::string EventLog::path() const {
  std::lock_guard<std::mutex> g(mu_);
  return file_ != nullptr ? file_->path() : std::string();
}

}  // namespace lstore
