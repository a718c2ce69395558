// lbench: the repository's end-to-end benchmark binary. Normally run
// through perfbench/run.py, which builds it first:
//
//   lbench --workload htap|durable|cold|wire --seed N --seconds S
//          --trace 0|1 --dir SCRATCH
//
// Prints progress lines, then as its last line one JSON object with
// the operations attempted and failed, whether every output check
// passed, and the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exit code 0 only when a result was printed.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/flight_recorder.h"
#include "workload_driver.h"

namespace lstore {
namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the list its mode prints.
// Tail latencies and scan figures are printed, but not gated: their
// run-to-run spread is too wide on a shared 4-vCPU host (README.md).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},      {"ops_s", "1/s"},      {"read_p50_us", "us"},
    {"write_p50_us", "us"}, {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reads 0 there (README.md).
const std::vector<MetricDef> kPerLayer = {
    {"table.read_p50_us", "us"},
    {"table.update_p50_us", "us"},
    {"commit.p50_us", "us"},
    {"commit.p99_us", "us"},
    {"txn.commit_ratio", "ratio"},
    {"commit.publish_p99_us", "us"},
    {"group_commit.batch_p50", "count"},
    {"group_commit.queue_wait_p99_us", "us"},
    {"log.appends_per_write", "count"},
    {"log.bytes_per_write", "B"},
    {"log.append_p99_us", "us"},
    {"log.flush_p99_us", "us"},
    {"stage.log_append_us", "us"},
    {"stage.log_flush_us", "us"},
    {"stage.gc_queue_wait_us", "us"},
    {"stage.other_us", "us"},
    {"merge.update_runs", "count"},
    {"merge.update_p50_ms", "ms"},
    {"merge.rows_consolidated_s", "1/s"},
    {"merge.insert_rows_at_start", "count"},
    {"merge.historic_versions", "count"},
    {"query.partition_p50_us", "us"},
    {"query.scan_rows_s", "1/s"},
    {"query.scan_p50_ms", "ms"},
    {"buffer.hit_ratio", "ratio"},
    {"buffer.misses_per_read", "count"},
    {"buffer.cold_point_read_ratio", "ratio"},
    {"buffer.evictions_s", "1/s"},
    {"buffer.resident_mb", "MB"},
    {"checkpoint.p50_ms", "ms"},
    {"checkpoint.capture_p50_ms", "ms"},
    {"checkpoint.truncate_p50_ms", "ms"},
    {"recover.open_s", "s"},
    {"recover.log_mb", "MB"},
    {"disk.total_mb", "MB"},
    {"disk.log_mb", "MB"},
    {"disk.segs_mb", "MB"},
    {"disk.ckpt_mb", "MB"},
    {"epoch.pending_max", "count"},
    {"server.queue_wait_p50_us", "us"},
    {"server.queue_wait_p99_us", "us"},
    {"server.request_p50_us", "us"},
    {"server.bytes_per_op", "B"},
    {"stage.decode_us", "us"},
    {"stage.queue_wait_us", "us"},
    {"stage.execute_us", "us"},
    {"stage.reply_us", "us"},
    {"client.submit_p50_us", "us"},
    {"trace.ops_s_delta_pct", "%"},
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--dir") {
      o->dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->dir.empty() &&
         o->seconds > 0;
}

}  // namespace

void SetLayerMetrics(const WindowResult& r, const RegistryDelta& reg,
                     Report* rep) {
  const ThreadStats& s = r.stats;
  rep->Set("table.read_p50_us", s.table_read.PercentileUs(0.50));
  rep->Set("table.update_p50_us", s.table_update.PercentileUs(0.50));
  rep->Set("commit.p50_us", s.commit.PercentileUs(0.50));
  rep->Set("commit.p99_us", s.commit.PercentileUs(0.99));
  if (s.commit_attempts > 0) {
    rep->Set("txn.commit_ratio",
             static_cast<double>(s.commits) / s.commit_attempts);
  }
  rep->Set("commit.publish_p99_us",
           reg.HistQ("lstore_commit_publish_ns", 0.99, 1e3));
  rep->Set("group_commit.batch_p50",
           reg.HistQ("lstore_group_commit_batch_size", 0.50));
  rep->Set("group_commit.queue_wait_p99_us",
           reg.HistQ("lstore_commit_queue_wait_ns", 0.99, 1e3));
  if (s.commits > 0) {
    rep->Set("log.appends_per_write",
             (reg.Delta("lstore_redo_appends_total") +
              reg.Delta("lstore_commit_log_appends_total")) /
                 s.commits);
    rep->Set("log.bytes_per_write",
             (reg.Delta("lstore_redo_append_bytes_total") +
              reg.Delta("lstore_commit_log_append_bytes_total")) /
                 s.commits);
  }
  rep->Set("log.append_p99_us", reg.HistQ("lstore_redo_append_ns", 0.99, 1e3));
  rep->Set("log.flush_p99_us", reg.HistQ("lstore_redo_flush_ns", 0.99, 1e3));
  rep->Set("merge.update_runs", reg.HistCount("lstore_merge_update_ns"));
  rep->Set("merge.update_p50_ms",
           reg.HistQ("lstore_merge_update_ns", 0.5, 1e6));
  rep->Set("merge.rows_consolidated_s",
           reg.Delta("lstore_merge_rows_consolidated_total") / r.secs);
  rep->Set("merge.historic_versions",
           reg.Delta("lstore_merge_historic_versions_total"));
  rep->Set("query.partition_p50_us",
           reg.HistQ("lstore_query_partition_ns", 0.5, 1e3));
  double hits = reg.Delta("lstore_buffer_hits");
  double misses = reg.Delta("lstore_buffer_misses");
  if (hits + misses > 0) rep->Set("buffer.hit_ratio", hits / (hits + misses));
  if (s.op[kRead].attempted > 0) {
    rep->Set("buffer.misses_per_read", misses / s.op[kRead].attempted);
  }
  if (misses > 0) {
    rep->Set("buffer.cold_point_read_ratio",
             reg.Delta("lstore_buffer_cold_point_reads") / misses);
  }
  rep->Set("buffer.evictions_s", reg.Delta("lstore_buffer_evictions") / r.secs);
  rep->Set("buffer.resident_mb",
           reg.Level("lstore_buffer_bytes_resident") / kMB);
  rep->Set("checkpoint.p50_ms", s.checkpoint.PercentileNs(0.50) / 1e6);
  rep->Set("checkpoint.capture_p50_ms",
           reg.HistQ("lstore_checkpoint_capture_ns", 0.5, 1e6));
  rep->Set("checkpoint.truncate_p50_ms",
           reg.HistQ("lstore_checkpoint_truncate_ns", 0.5, 1e6));
  double requests = reg.Delta("lstore_server_requests_total");
  rep->Set("server.queue_wait_p50_us",
           reg.HistQ("lstore_server_queue_wait_ns", 0.50, 1e3));
  rep->Set("server.queue_wait_p99_us",
           reg.HistQ("lstore_server_queue_wait_ns", 0.99, 1e3));
  rep->Set("server.request_p50_us",
           reg.HistQ("lstore_server_request_ns", 0.50, 1e3));
  if (requests > 0) {
    rep->Set("server.bytes_per_op",
             (reg.Delta("lstore_server_bytes_in_total") +
              reg.Delta("lstore_server_bytes_out_total")) /
                 requests);
  }
  rep->Set("client.submit_p50_us", s.submit.PercentileUs(0.50));
}

void SetStageMetrics(const WindowResult& r, Report* rep) {
  bench::StageBreakdown b = bench::ComputeStageBreakdown(
      FlightRecorder::Instance().Snapshot(), r.trace_lo, r.trace_hi);
  std::printf("p99_by_stage: %zu traces, e2e %.1f us\n", b.traces, b.e2e_us);
  for (const char* stage : {"log_append", "log_flush", "gc_queue_wait", "other",
                            "decode", "queue_wait", "execute", "reply"}) {
    auto it = b.stage_us.find(stage);
    rep->Set(std::string("stage.") + stage + "_us",
             it == b.stage_us.end() ? 0 : it->second);
  }
}

}  // namespace perfbench
}  // namespace lstore

int main(int argc, char** argv) {
  using namespace lstore::perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: lbench --workload htap|durable|cold|wire --seed N "
                 "--seconds S --trace 0|1 --dir SCRATCH\n");
    return 2;
  }
  std::filesystem::remove_all(o.dir);
  std::filesystem::create_directories(o.dir);
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%u trace=%d\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  Report rep;
  if (o.workload == "htap") {
    rep = RunHtap(o);
  } else if (o.workload == "durable") {
    rep = RunDurable(o);
  } else if (o.workload == "cold") {
    rep = RunCold(o);
  } else if (o.workload == "wire") {
    rep = RunWire(o);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(o.dir);
  rep.Set("peak_rss_mb", PeakRssMb());

  for (const auto& [name, v] : rep.values) {
    std::printf("  %-32s %.6g\n", name.c_str(), v);
  }
  const auto& defs = o.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = rep.values.find(defs[i].name);
    double v = it == rep.values.end() ? 0 : it->second;
    if (!o.trace && (it == rep.values.end() || !(v > 0))) {
      // An end-to-end metric that was not measured is a harness bug.
      std::fprintf(stderr, "perfbench: %s not measured\n", defs[i].name);
      return 1;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
