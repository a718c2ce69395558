// Background stats reporter: appends one JSON MetricsSnapshot line to
// a file every interval, so a run leaves a post-mortem timeline
// (<dir>/metrics.log) without any in-process consumer. Enabled by
// DurabilityOptions::metrics_report_interval_ms.
//
// The file is opened, appended, and closed on every tick — never held
// across ticks — so an operator can rotate (rename or delete) the log
// at any moment: the next tick recreates it. Stop() joins the thread;
// Database teardown stops the reporter before anything it samples.

#ifndef LSTORE_OBS_REPORTER_H_
#define LSTORE_OBS_REPORTER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/health.h"
#include "obs/json_lines.h"
#include "obs/metrics.h"

namespace lstore {

class StatsReporter {
 public:
  /// Starts the thread. `snapshot_fn` is called once per tick on the
  /// reporter thread; it must stay valid until Stop(). `hb` (nullable)
  /// is beaten once per tick so the watchdog can spot a wedged
  /// reporter. With `max_bytes` > 0 the file rotates to <path>.1 once
  /// it reaches the bound.
  StatsReporter(std::string path, uint64_t interval_ms,
                std::function<MetricsSnapshot()> snapshot_fn,
                std::shared_ptr<Heartbeat> hb = nullptr,
                uint64_t max_bytes = 0);
  ~StatsReporter() { Stop(); }

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// Writes one final line, then joins. Idempotent.
  void Stop();

  const std::string& path() const { return file_.path(); }

 private:
  void Loop();
  void WriteLine();

  JsonLinesFile file_;
  uint64_t interval_ms_;
  std::function<MetricsSnapshot()> snapshot_fn_;
  std::shared_ptr<Heartbeat> hb_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace lstore

#endif  // LSTORE_OBS_REPORTER_H_
