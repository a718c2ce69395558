// Engine self-monitoring: heartbeat-based liveness for every
// long-lived background actor, a watchdog that classifies each one
// healthy | slow | stalled against per-actor deadlines, and a typed
// health report surfaced through Database::Health() / the HEALTH wire
// op / `lstore_cli status`.
//
// Model: each background loop (merge threads, the checkpointer, log
// flushers, the stats reporter, server workers, per-connection
// readers) registers a named Heartbeat and brackets its work:
//
//   auto hb = registry->Register("merge:orders");
//   ...
//   hb->BeginWork();   // busy = true, beat
//   ...long task, beating at natural progress points: hb->Beat()...
//   hb->EndWork();     // beat, busy = false
//
// A beat is one relaxed atomic store of the registry clock — zero
// hot-path cost. Classification is busy-scoped: an IDLE actor (parked
// on its condition variable waiting for work) is always healthy no
// matter how long ago it beat — only an actor that began work and
// then went silent past its deadline is slow (past `slow_ms`) or
// stalled (past `stall_ms`). That distinction is what lets the merge
// thread block indefinitely on an empty queue without tripping the
// watchdog.
//
// The registry holds weak_ptrs, so an actor's teardown (dropping its
// shared_ptr) unregisters it implicitly — no teardown-order
// obligations between actors and the watchdog beyond "stop the
// watchdog before destroying the registry".
//
// The clock is injectable (a plain function pointer, swapped
// atomically) and shared by beats and sweeps, so tests drive
// stall/recovery transitions with a fake clock and zero wall-clock
// sleeps.
//
// The Watchdog publishes verdict counts as lstore_health_* gauges,
// emits a `watchdog` event on every verdict change, and on a *new*
// stall writes a one-shot flight-recorder dump to
// <dir>/stall-<actor>-<ts>.trace.json — one dump per stall episode,
// re-armed only when the actor recovers.

#ifndef LSTORE_OBS_HEALTH_H_
#define LSTORE_OBS_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace lstore {

class HealthRegistry;

enum class HealthVerdict : uint8_t {
  kHealthy = 0,
  kSlow = 1,
  kStalled = 2,
};

/// Stable lowercase name ("healthy" / "slow" / "stalled").
const char* HealthVerdictName(HealthVerdict v);

/// One actor's liveness handle. All methods are relaxed-atomic stores
/// and safe from any thread; the owning actor drops its shared_ptr at
/// teardown to unregister.
class Heartbeat {
 public:
  /// Record liveness (while busy, at natural progress points).
  void Beat();
  /// Enter a unit of work: beat + mark busy. Only busy actors can be
  /// classified slow/stalled.
  void BeginWork();
  /// Leave the unit of work: beat + mark idle.
  void EndWork();

  const std::string& name() const { return name_; }
  uint64_t slow_ms() const { return slow_ms_; }
  uint64_t stall_ms() const { return stall_ms_; }
  bool busy() const { return busy_.load(std::memory_order_relaxed); }
  uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  uint64_t last_beat_ns() const {
    return last_beat_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class HealthRegistry;
  Heartbeat(const HealthRegistry* registry, std::string name,
            uint64_t slow_ms, uint64_t stall_ms);

  const HealthRegistry* const registry_;  ///< clock source (outlives us)
  const std::string name_;
  const uint64_t slow_ms_;
  const uint64_t stall_ms_;
  std::atomic<uint64_t> last_beat_ns_;
  std::atomic<bool> busy_{false};
  std::atomic<uint64_t> beats_{0};
};

/// RAII BeginWork/EndWork bracket covering a scope (early returns
/// included). Null-safe so call sites need no heartbeat check.
class HeartbeatWorkScope {
 public:
  explicit HeartbeatWorkScope(Heartbeat* hb) : hb_(hb) {
    if (hb_ != nullptr) hb_->BeginWork();
  }
  ~HeartbeatWorkScope() {
    if (hb_ != nullptr) hb_->EndWork();
  }
  HeartbeatWorkScope(const HeartbeatWorkScope&) = delete;
  HeartbeatWorkScope& operator=(const HeartbeatWorkScope&) = delete;

 private:
  Heartbeat* hb_;
};

/// The set of live heartbeats plus the (injectable) clock they and
/// the watchdog share.
class HealthRegistry {
 public:
  using ClockFn = uint64_t (*)();

  /// Default deadlines: generous enough that a legitimately busy
  /// actor on a loaded CI machine (TSan, cold caches) never trips
  /// them between natural beat points.
  static constexpr uint64_t kDefaultSlowMs = 1000;
  static constexpr uint64_t kDefaultStallMs = 10000;

  HealthRegistry();

  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  /// Register a named actor. The returned shared_ptr is the
  /// registration: dropping it unregisters (the registry keeps only a
  /// weak_ptr). `slow_ms`/`stall_ms` of 0 take the registry defaults.
  std::shared_ptr<Heartbeat> Register(std::string name, uint64_t slow_ms = 0,
                                      uint64_t stall_ms = 0);

  /// Replace the default per-actor deadlines applied by Register
  /// (existing registrations keep theirs).
  void set_default_deadlines(uint64_t slow_ms, uint64_t stall_ms);

  /// Inject a clock (monotonic nanoseconds) shared by every Beat()
  /// and by watchdog sweeps, so fake-clock tests are coherent. Must
  /// be a race-free function (e.g. reading one atomic).
  void SetClockForTest(ClockFn clock);

  uint64_t NowNs() const {
    return clock_.load(std::memory_order_relaxed)();
  }

  /// Live heartbeats (expired registrations pruned as a side effect).
  std::vector<std::shared_ptr<Heartbeat>> Snapshot();

 private:
  std::atomic<ClockFn> clock_;
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<Heartbeat>> actors_;
  uint64_t default_slow_ms_ = kDefaultSlowMs;
  uint64_t default_stall_ms_ = kDefaultStallMs;
};

/// One actor's row in a health report.
struct ActorHealth {
  std::string name;
  HealthVerdict verdict = HealthVerdict::kHealthy;
  bool busy = false;
  uint64_t since_beat_ms = 0;  ///< now - last beat (sweep clock)
  uint64_t beats = 0;
  uint64_t slow_ms = 0;   ///< the actor's deadlines
  uint64_t stall_ms = 0;
};

struct HealthReport {
  std::vector<ActorHealth> actors;  ///< sorted by name
  uint64_t healthy = 0;
  uint64_t slow = 0;
  uint64_t stalled = 0;
  std::vector<Event> recent_events;  ///< oldest first
};

/// Render a report as one JSON document (the `lstore_cli status
/// --json` shape, also scraped by CI).
std::string RenderHealthJson(const HealthReport& report);

/// Sweeps the registry: classifies every actor, publishes
/// lstore_health_{healthy,slow,stalled} gauges, emits a `watchdog`
/// event on each verdict change, and dumps the flight recorder once
/// per new stall episode. SweepOnce() is public so fake-clock tests
/// (and Database::Health()) drive sweeps without the background
/// thread.
class Watchdog {
 public:
  /// `dump_fn` supplies the flight-recorder JSON written on a new
  /// stall (empty dump dir = dumps disabled). `events` and `metrics`
  /// are nullable.
  Watchdog(HealthRegistry* registry, EventLog* events,
           MetricsRegistry* metrics, std::function<std::string()> dump_fn);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Directory receiving stall-<actor>-<ts>.trace.json dumps; unset
  /// (empty) on an in-memory database.
  void set_dump_dir(std::string dir);

  /// Start/stop the background sweep thread (interval 0 = no thread;
  /// SweepOnce is still usable). Stop() joins; idempotent.
  void Start(uint64_t interval_ms);
  void Stop();

  /// One sweep: classify, publish, emit, dump. Returns the actor rows
  /// (sorted by name) with verdict counts via the report fields.
  HealthReport SweepOnce();

  /// Flight-recorder dumps written (tests: exactly one per episode).
  uint64_t stall_dumps() const {
    return stall_dumps_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();

  /// Per-actor episode memory, keyed by name: previous verdict (for
  /// change events) and whether this stall episode already dumped.
  struct ActorState {
    HealthVerdict verdict = HealthVerdict::kHealthy;
    bool dumped = false;
    bool seen = false;  ///< sweep-liveness mark (dead actors pruned)
  };

  HealthRegistry* const registry_;
  EventLog* const events_;
  std::function<std::string()> dump_fn_;
  std::atomic<uint64_t> stall_dumps_{0};

  // Registry handles (null when no metrics registry was wired).
  Gauge* g_healthy_ = nullptr;
  Gauge* g_slow_ = nullptr;
  Gauge* g_stalled_ = nullptr;
  Gauge* g_actors_ = nullptr;

  std::mutex sweep_mu_;  ///< serializes sweeps; guards state_/dump_dir_
  std::unordered_map<std::string, ActorState> state_;
  std::string dump_dir_;

  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool running_ = false;
  uint64_t interval_ms_ = 0;
  std::thread thread_;
};

}  // namespace lstore

#endif  // LSTORE_OBS_HEALTH_H_
