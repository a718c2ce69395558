// Health-model tests (src/obs/health.h, event_log.h, and the HEALTH
// wire op): watchdog verdict transitions driven by an injected fake
// clock (zero wall-clock sleeps), busy-scoped classification (idle
// actors never flagged; slow-but-beating actors never false-positive),
// exactly one flight-recorder dump per stall episode, event-ring
// wraparound and severity filtering, events.log JSON schema + size
// rotation (shared with metrics.log and slowops.log), a deterministic
// end-to-end merge-thread stall injected through
// TableConfig::merge_test_park, HEALTH over the wire, and clean
// teardown ordering (watchdog stops before watched subsystems).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "core/database.h"
#include "core/table.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/slow_op_log.h"
#include "obs/span.h"
#include "server/client.h"
#include "server/server.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

// Injected registry clock: a single atomic read, so beats and sweeps
// from any thread stay race-free under TSan.
std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeNow() { return g_fake_now_ns.load(std::memory_order_relaxed); }

constexpr uint64_t kMsNs = 1000000ull;

std::string FreshDir(const std::string& stem) {
  std::string dir = std::string(::testing::TempDir()) + stem + "_" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

size_t CountStallDumps(const std::string& dir) {
  size_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::string name = e.path().filename().string();
    if (name.rfind("stall-", 0) == 0 &&
        name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".trace.json") == 0) {
      ++n;
    }
  }
  return n;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

const ActorHealth* FindActor(const HealthReport& report,
                             const std::string& name) {
  for (const ActorHealth& a : report.actors) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

// --- watchdog verdict machine (fake clock, no database) --------------------

TEST(WatchdogTest, TransitionsEmitEventsAndDumpOncePerEpisode) {
  g_fake_now_ns.store(0);
  std::string dump_dir = FreshDir("lstore_health_dumps");
  fs::create_directories(dump_dir);

  HealthRegistry registry;
  registry.SetClockForTest(&FakeNow);
  EventLog events(64);
  MetricsRegistry metrics;
  std::atomic<uint64_t> dump_calls{0};
  Watchdog dog(&registry, &events, &metrics, [&dump_calls] {
    dump_calls.fetch_add(1);
    return std::string("{\"traceEvents\":[]}");
  });
  dog.set_dump_dir(dump_dir);

  auto hb = registry.Register("merge:orders", /*slow_ms=*/100,
                              /*stall_ms=*/500);
  hb->BeginWork();  // busy from t=0

  // t=50ms: busy but inside the slow deadline.
  g_fake_now_ns.store(50 * kMsNs);
  HealthReport r = dog.SweepOnce();
  ASSERT_EQ(r.actors.size(), 1u);
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kHealthy);
  EXPECT_TRUE(r.actors[0].busy);
  EXPECT_EQ(r.healthy, 1u);
  EXPECT_EQ(events.total(), 0u);  // no verdict change yet

  // t=150ms: past slow_ms -> slow, one warn event.
  g_fake_now_ns.store(150 * kMsNs);
  r = dog.SweepOnce();
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kSlow);
  EXPECT_EQ(r.slow, 1u);
  std::vector<Event> ev = events.Recent(16);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].severity, EventSeverity::kWarn);
  EXPECT_EQ(ev[0].actor, "merge:orders");
  EXPECT_EQ(ev[0].kind, "watchdog");
  EXPECT_NE(ev[0].fields.find("\"verdict\":\"slow\""), std::string::npos);
  EXPECT_NE(ev[0].fields.find("\"prev\":\"healthy\""), std::string::npos);
  EXPECT_EQ(dog.stall_dumps(), 0u);

  // t=600ms: past stall_ms -> stalled, error event, exactly one dump.
  g_fake_now_ns.store(600 * kMsNs);
  r = dog.SweepOnce();
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kStalled);
  EXPECT_EQ(r.stalled, 1u);
  EXPECT_EQ(dog.stall_dumps(), 1u);
  EXPECT_EQ(dump_calls.load(), 1u);
  EXPECT_EQ(CountStallDumps(dump_dir), 1u);
  EXPECT_EQ(metrics.GetGauge("lstore_health_stalled")->value(), 1);
  EXPECT_EQ(metrics.GetGauge("lstore_health_healthy")->value(), 0);
  EXPECT_EQ(metrics.GetGauge("lstore_health_actors")->value(), 1);

  // Still stalled on later sweeps: the episode does NOT dump again.
  g_fake_now_ns.store(700 * kMsNs);
  r = dog.SweepOnce();
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kStalled);
  EXPECT_EQ(dog.stall_dumps(), 1u);
  EXPECT_EQ(dump_calls.load(), 1u);

  // Recovery: a fresh beat (still busy) flips the verdict back and
  // emits an info event.
  uint64_t before = events.total();
  hb->Beat();
  r = dog.SweepOnce();
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kHealthy);
  EXPECT_EQ(metrics.GetGauge("lstore_health_stalled")->value(), 0);
  ev = events.Recent(1);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].severity, EventSeverity::kInfo);
  EXPECT_NE(ev[0].fields.find("\"prev\":\"stalled\""), std::string::npos);
  EXPECT_EQ(events.total(), before + 1);

  // A second stall is a NEW episode: the dump re-arms.
  g_fake_now_ns.store(g_fake_now_ns.load() + 600 * kMsNs);
  r = dog.SweepOnce();
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kStalled);
  EXPECT_EQ(dog.stall_dumps(), 2u);
  EXPECT_EQ(dump_calls.load(), 2u);

  hb->EndWork();
  r = dog.SweepOnce();
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kHealthy);
  EXPECT_FALSE(r.actors[0].busy);
}

TEST(WatchdogTest, IdleActorsNeverFlagged) {
  g_fake_now_ns.store(0);
  HealthRegistry registry;
  registry.SetClockForTest(&FakeNow);
  EventLog events(16);
  Watchdog dog(&registry, &events, nullptr, nullptr);

  // Registered but never BeginWork'd: parked on its cv waiting for
  // work. Silence for an hour is not a liveness failure.
  auto hb = registry.Register("checkpointer", 100, 500);
  g_fake_now_ns.store(3600ull * 1000 * kMsNs);
  HealthReport r = dog.SweepOnce();
  ASSERT_EQ(r.actors.size(), 1u);
  EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kHealthy);
  EXPECT_EQ(r.stalled, 0u);
  EXPECT_EQ(events.total(), 0u);
  EXPECT_EQ(dog.stall_dumps(), 0u);
}

TEST(WatchdogTest, SlowButBeatingActorNeverFalsePositives) {
  g_fake_now_ns.store(0);
  HealthRegistry registry;
  registry.SetClockForTest(&FakeNow);
  EventLog events(16);
  Watchdog dog(&registry, &events, nullptr, nullptr);

  auto hb = registry.Register("group_commit", 100, 500);
  hb->BeginWork();
  // Ten deliberate slow beats: 50ms of simulated work between each —
  // never past the 100ms slow deadline at sweep time, even though the
  // unit of work spans 500ms+ in total.
  for (int i = 0; i < 10; ++i) {
    g_fake_now_ns.store(g_fake_now_ns.load() + 50 * kMsNs);
    hb->Beat();
    HealthReport r = dog.SweepOnce();
    ASSERT_EQ(r.actors.size(), 1u);
    EXPECT_EQ(r.actors[0].verdict, HealthVerdict::kHealthy) << "beat " << i;
  }
  hb->EndWork();
  EXPECT_EQ(events.total(), 0u);
  EXPECT_EQ(dog.stall_dumps(), 0u);
  EXPECT_GE(hb->beats(), 11u);
}

TEST(WatchdogTest, DroppedHeartbeatUnregistersActor) {
  g_fake_now_ns.store(0);
  HealthRegistry registry;
  registry.SetClockForTest(&FakeNow);
  Watchdog dog(&registry, nullptr, nullptr, nullptr);

  auto hb = registry.Register("server.reader.7");
  EXPECT_EQ(dog.SweepOnce().actors.size(), 1u);
  hb.reset();  // actor teardown = dropping the shared_ptr
  EXPECT_EQ(dog.SweepOnce().actors.size(), 0u);
}

// --- event log -------------------------------------------------------------

TEST(EventLogTest, RingWrapsAndFiltersBySeverity) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Emit(EventSeverity::kInfo, "t", "tick", "\"i\":" + std::to_string(i));
  }
  EXPECT_EQ(log.total(), 10u);
  std::vector<Event> recent = log.Recent(100);
  ASSERT_EQ(recent.size(), 4u);  // ring bounded at capacity
  for (size_t i = 0; i < 4; ++i) {
    // Oldest-first, retaining exactly the newest four (6..9).
    EXPECT_EQ(recent[i].fields, "\"i\":" + std::to_string(6 + i));
  }

  log.Emit(EventSeverity::kWarn, "t", "pressure");
  log.Emit(EventSeverity::kError, "t", "stall");
  std::vector<Event> serious = log.Recent(100, EventSeverity::kWarn);
  ASSERT_EQ(serious.size(), 2u);
  EXPECT_EQ(serious[0].kind, "pressure");
  EXPECT_EQ(serious[1].kind, "stall");
  EXPECT_EQ(log.Recent(1, EventSeverity::kWarn).size(), 1u);
}

TEST(EventLogTest, JsonLinesRoundTripAndRotate) {
  std::string dir = FreshDir("lstore_health_events");
  fs::create_directories(dir);
  std::string path = dir + "/events.log";

  // Exact line schema (the shape check_events_json.py validates).
  Event e;
  e.ts_ms = 1234;
  e.severity = EventSeverity::kWarn;
  e.actor = "buffer\"pool";  // escaping round-trips
  e.kind = "budget_pressure";
  e.fields = "\"resident_bytes\":9,\"budget_bytes\":8";
  EXPECT_EQ(RenderEventJson(e),
            "{\"ts_ms\":1234,\"severity\":\"warn\","
            "\"actor\":\"buffer\\\"pool\",\"kind\":\"budget_pressure\","
            "\"resident_bytes\":9,\"budget_bytes\":8}");

  // Tight size bound: the file rotates to .1 instead of growing.
  EventLog log(8);
  log.Configure(path, /*max_bytes=*/256);
  for (int i = 0; i < 32; ++i) {
    log.Emit(EventSeverity::kInfo, "checkpointer", "checkpoint_begin",
             "\"id\":" + std::to_string(i));
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".1"));
  EXPECT_LT(fs::file_size(path), 256u + 128u);  // bounded, not unbounded

  // Every surviving line keeps the fixed leading keys in order.
  for (const std::string& f : {path, path + ".1"}) {
    std::vector<std::string> lines = ReadLines(f);
    ASSERT_FALSE(lines.empty()) << f;
    for (const std::string& line : lines) {
      EXPECT_EQ(line.rfind("{\"ts_ms\":", 0), 0u) << line;
      EXPECT_NE(line.find("\"severity\":\"info\""), std::string::npos);
      EXPECT_NE(line.find("\"actor\":\"checkpointer\""), std::string::npos);
      EXPECT_NE(line.find("\"kind\":\"checkpoint_begin\""), std::string::npos);
      EXPECT_EQ(line.back(), '}');
    }
  }

  // The same bound, set once through DurabilityOptions::obs_log_max_bytes,
  // rotates a database's metrics.log and slowops.log too: all three logs
  // share one JSON-lines writer.
  std::string db_dir = dir + "/db";
  {
    DurabilityOptions opts;
    opts.obs_log_max_bytes = 256;
    opts.metrics_report_interval_ms = 1;
    opts.slow_op_threshold_us = 1;
    opts.watchdog_interval_ms = 0;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(db_dir, opts, &db).ok());
    if (kTraceEnabled) {
      ASSERT_NE(db->slow_op_log(), nullptr);
      std::vector<TraceSpan> spans(4, TraceSpan{7, "execute", 0, 1000, 0});
      for (uint32_t i = 0; i < 8; ++i) {
        db->slow_op_log()->Dump(7, "insert", i, 5000, spans);
      }
    }
    // Every metrics line is a whole snapshot, larger than the bound.
    for (int i = 0; i < 2000 && !fs::exists(db_dir + "/metrics.log.1"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::vector<std::string> rotated = {"metrics.log"};
  if (kTraceEnabled) rotated.push_back("slowops.log");
  for (const std::string& name : rotated) {
    std::string f = db_dir + "/" + name;
    ASSERT_TRUE(fs::exists(f + ".1")) << name;
    for (const std::string& g : {f, f + ".1"}) {
      for (const std::string& line : ReadLines(g)) {
        EXPECT_EQ(line.front(), '{') << g;
        EXPECT_EQ(line.back(), '}') << g;
      }
    }
  }
  fs::remove_all(dir);
}

// --- end-to-end: injected merge stall on a durable database ----------------

TEST(HealthDatabaseTest, MergeStallDetectedDumpedOnceAndRecovers) {
  std::string dir = FreshDir("lstore_health_stall");
  std::atomic<int> park{0};
  {
    DurabilityOptions opts;
    opts.watchdog_interval_ms = 0;  // sweeps only via Health(): no races
    opts.health_slow_ms = 100;
    opts.health_stall_ms = 500;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, opts, &db).ok());

    // Fake clock BEFORE the table exists, so the merge heartbeat's
    // whole life runs on it. (A pre-swap real-clock stamp would only
    // clamp since_beat to zero — never a spurious stall.)
    g_fake_now_ns.store(1 * kMsNs);
    db->health().SetClockForTest(&FakeNow);

    TableConfig cfg;
    cfg.range_size = 64;
    cfg.insert_range_size = 64;
    cfg.tail_page_slots = 16;
    cfg.merge_threshold = 8;
    cfg.enable_merge_thread = true;
    cfg.merge_test_park = &park;
    park.store(1, std::memory_order_release);  // park the FIRST task
    ASSERT_TRUE(db->CreateTable("t", Schema(2), cfg).ok());
    Table* table = db->GetTable("t");
    ASSERT_NE(table, nullptr);

    // Enough committed work to trigger a background merge task.
    {
      Txn txn = db->Begin();
      for (Value k = 0; k < 64; ++k) {
        ASSERT_TRUE(table->Insert(txn, {k, k * 10}).ok());
      }
      ASSERT_TRUE(txn.Commit().ok());
    }
    for (Value k = 0; k < 16; ++k) {
      Txn txn = db->Begin();
      ASSERT_TRUE(table->Update(txn, k, 0b10, {0, 7000 + k}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }

    // Wait (bounded, real time) for the merge thread to claim the task
    // and ack the park — it is now busy and silent, by construction.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (park.load(std::memory_order_acquire) != 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(park.load(std::memory_order_acquire), 2)
        << "merge thread never claimed the parked task";

    // Cross the stall deadline on the fake clock: detected within one
    // sweep, gauge flips 0 -> 1, exactly one flight-recorder dump.
    g_fake_now_ns.store(g_fake_now_ns.load() + 600 * kMsNs);
    HealthReport report = db->Health();
    const ActorHealth* merge_actor = FindActor(report, "merge:t");
    ASSERT_NE(merge_actor, nullptr);
    EXPECT_EQ(merge_actor->verdict, HealthVerdict::kStalled);
    EXPECT_TRUE(merge_actor->busy);
    EXPECT_GE(merge_actor->since_beat_ms, 600u);
    EXPECT_EQ(report.stalled, 1u);
    EXPECT_EQ(db->metrics().GetGauge("lstore_health_stalled")->value(), 1);
    EXPECT_EQ(db->watchdog()->stall_dumps(), 1u);
    EXPECT_EQ(CountStallDumps(dir), 1u);

    // The report carries the watchdog event; so does <dir>/events.log.
    bool saw_event = false;
    for (const Event& e : report.recent_events) {
      if (e.kind == "watchdog" && e.actor == "merge:t" &&
          e.severity == EventSeverity::kError &&
          e.fields.find("\"verdict\":\"stalled\"") != std::string::npos) {
        saw_event = true;
      }
    }
    EXPECT_TRUE(saw_event);
    bool saw_line = false;
    for (const std::string& line : ReadLines(dir + "/events.log")) {
      if (line.find("\"kind\":\"watchdog\"") != std::string::npos &&
          line.find("\"actor\":\"merge:t\"") != std::string::npos &&
          line.find("\"verdict\":\"stalled\"") != std::string::npos) {
        saw_line = true;
      }
    }
    EXPECT_TRUE(saw_line);

    // Still stalled on the next sweep: no second dump for the episode.
    g_fake_now_ns.store(g_fake_now_ns.load() + 100 * kMsNs);
    report = db->Health();
    EXPECT_EQ(FindActor(report, "merge:t")->verdict, HealthVerdict::kStalled);
    EXPECT_EQ(db->watchdog()->stall_dumps(), 1u);
    EXPECT_EQ(CountStallDumps(dir), 1u);

    // Release the park; the merge finishes (beating as it goes) and
    // the verdict returns to healthy.
    park.store(0, std::memory_order_release);
    table->WaitForMergeQueue();
    report = db->Health();
    EXPECT_EQ(FindActor(report, "merge:t")->verdict, HealthVerdict::kHealthy);
    EXPECT_EQ(report.stalled, 0u);
    EXPECT_EQ(db->metrics().GetGauge("lstore_health_stalled")->value(), 0);
    EXPECT_EQ(db->watchdog()->stall_dumps(), 1u);  // episode ended cleanly

    bool saw_recovery = false;
    for (const Event& e : db->event_log().Recent(64)) {
      if (e.kind == "watchdog" && e.actor == "merge:t" &&
          e.fields.find("\"prev\":\"stalled\"") != std::string::npos) {
        saw_recovery = true;
      }
    }
    EXPECT_TRUE(saw_recovery);
  }
  fs::remove_all(dir);
}

// --- HEALTH over the wire --------------------------------------------------

TEST(HealthWireTest, HealthOpRoundTripsActorsAndEvents) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema(2), {}).ok());
  db.event_log().Emit(EventSeverity::kWarn, "test", "marker",
                      "\"token\":42");

  Server server(&db, {});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  HealthReport report;
  ASSERT_TRUE(client.Health(&report).ok());
  // The server's own pool registered heartbeats; the sweep saw them.
  EXPECT_NE(FindActor(report, "server.worker.0"), nullptr);
  EXPECT_FALSE(report.actors.empty());
  EXPECT_EQ(report.healthy + report.slow + report.stalled,
            report.actors.size());
  // Actor rows arrive sorted (server-side contract preserved).
  for (size_t i = 1; i < report.actors.size(); ++i) {
    EXPECT_LT(report.actors[i - 1].name, report.actors[i].name);
  }

  bool saw_marker = false;
  bool saw_start = false;
  for (const Event& e : report.recent_events) {
    if (e.kind == "marker" && e.actor == "test" &&
        e.severity == EventSeverity::kWarn &&
        e.fields == "\"token\":42") {
      saw_marker = true;
    }
    if (e.kind == "start" && e.actor == "server") saw_start = true;
  }
  EXPECT_TRUE(saw_marker);
  EXPECT_TRUE(saw_start);

  // The JSON rendering (lstore_cli status --json) covers the report.
  std::string json = RenderHealthJson(report);
  EXPECT_EQ(json.rfind("{\"healthy\":", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"server.worker.0\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"marker\""), std::string::npos);

  server.Stop();
  std::vector<Event> after = db.event_log().Recent(64);
  bool saw_stop = false;
  for (const Event& e : after) {
    if (e.kind == "stop" && e.actor == "server") saw_stop = true;
  }
  EXPECT_TRUE(saw_stop);
}

TEST(HealthWireTest, ServerSampledTraceIdsProduceSpans) {
  Database db;
  ServerConfig cfg;
  cfg.trace_sample_every = 1;  // every un-flagged request is sampled
  Server server(&db, cfg);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  uint64_t before = FlightRecorder::Instance().recorded();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  uint64_t after = FlightRecorder::Instance().recorded();
  if (kTraceEnabled) {
    // Server-minted ids trace the requests end to end: each ping
    // records at least its decode + root spans.
    EXPECT_GE(after, before + 2);
  } else {
    // Sampling compiles away with tracing: no spans, no crash.
    EXPECT_EQ(after, before);
  }
}

// --- teardown ordering -----------------------------------------------------

TEST(HealthDatabaseTest, BackgroundWatchdogTearsDownBeforeActors) {
  std::string dir = FreshDir("lstore_health_teardown");
  {
    DurabilityOptions opts;
    opts.watchdog_interval_ms = 1;  // aggressive background sweeps
    opts.metrics_report_interval_ms = 1;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, opts, &db).ok());

    TableConfig cfg;
    cfg.range_size = 64;
    cfg.insert_range_size = 64;
    cfg.merge_threshold = 8;
    cfg.enable_merge_thread = true;
    ASSERT_TRUE(db->CreateTable("t", Schema(2), cfg).ok());
    Table* table = db->GetTable("t");
    {
      Txn txn = db->Begin();
      for (Value k = 0; k < 64; ++k) {
        ASSERT_TRUE(table->Insert(txn, {k, k}).ok());
      }
      ASSERT_TRUE(txn.Commit().ok());
    }
    // Let the watchdog thread overlap live merge/commit actors, then
    // destroy the Database: ~Database stops the watchdog FIRST, so no
    // sweep may observe a half-destroyed actor (the TSan target).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace lstore
