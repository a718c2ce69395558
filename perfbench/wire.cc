// wire: the service path. An in-memory table of 200k rows served by an
// in-process Server on loopback; two client connections each keep 8
// requests in flight (under the server's per-session cap of 16, so
// admission control never answers Busy). The mix is 60% point reads,
// 30% pair updates of the connection's own keys and 10% MultiReads of
// 8 keys; decode, job queue, worker handoff and reply dominate. After
// the window, full-table Sum queries run over the wire.
//
// Checks: every row read, alone or in a MultiRead, satisfies the
// (value, companion) pair and the formulas of the untouched columns;
// every Sum of an untouched column equals its closed-form sum.

#include <cstdio>
#include <map>

#include "harness.h"
#include "server/client.h"
#include "server/server.h"

namespace lstore {
namespace perfbench {
namespace {

constexpr uint64_t kRows = 1000000;
constexpr uint32_t kConnections = 1;
constexpr uint32_t kDepth = 8;
constexpr uint32_t kBatch = 8;
constexpr uint32_t kServerWorkers = 2;
constexpr int kSetups = 3;
constexpr int kScans = 5;
constexpr ColumnId kScanCol = 3;
const char* const kTable = "t";

void Connection(uint16_t port, uint64_t seed, WorkerCtx& ctx) {
  ThreadStats& out = *ctx.out;
  Client client;
  Status cs = client.Connect("127.0.0.1", port);
  if (!cs.ok()) {
    out.Wrong("connect: " + cs.ToString());
    return;
  }
  client.channel().set_max_in_flight(kDepth);
  Random rng(seed * 0x9e3779b97f4a7c15ull + ctx.worker + 1);
  KeyGenerator keys(kRows, 0.0, seed * 7919 + ctx.worker + 1);
  const ColumnMask all = (1ull << kColumns) - 1;

  struct Pending {
    OpClass cls;
    uint64_t t0;
    bool measure;
    Value key;                // reads
    std::vector<Value> keys;  // multi-reads
  };
  std::map<RequestId, Pending> pending;
  std::vector<Value> row;
  std::vector<std::vector<Value>> rows;

  auto await_oldest = [&]() {
    RequestId id;
    if (!client.channel().OldestInFlight(&id)) return;
    auto it = pending.find(id);
    Pending p = std::move(it->second);
    pending.erase(it);
    Status s;
    switch (p.cls) {
      case kRead:
        s = client.AwaitRead(id, &row);
        if (s.ok() && !RowConsistent(p.key, row)) {
          out.Wrong("wire read of key " + std::to_string(p.key) +
                    " does not match its formula");
        }
        break;
      case kMultiRead: {
        std::vector<Status> statuses;
        s = client.AwaitMultiRead(id, p.keys.size(), &rows, &statuses);
        for (size_t i = 0; s.ok() && i < p.keys.size(); ++i) {
          if (!statuses[i].ok()) s = statuses[i];
          else if (!RowConsistent(p.keys[i], rows[i])) {
            out.Wrong("wire multi-read of key " + std::to_string(p.keys[i]) +
                      " does not match its formula");
          }
        }
        break;
      }
      default:
        s = client.Await(id);
        break;
    }
    out.Account(p.cls, s, p.t0, p.measure);
    if (p.cls == kWrite && p.measure) {
      ++out.commit_attempts;
      if (s.ok()) ++out.commits;
    }
  };

  for (int ph; (ph = ctx.State()) != kStop && client.connected();) {
    if (client.channel().in_flight() >= kDepth) {
      await_oldest();
      continue;
    }
    const bool measure = ph == kMeasure;
    uint64_t trace_id = ctx.MaybeTrace(measure);
    if (trace_id != 0) client.set_next_trace_id(trace_id);
    const uint64_t dice = rng.Uniform(100);
    Pending p{dice < 60 ? kRead : dice < 90 ? kWrite : kMultiRead, NowNs(),
              measure, 0, {}};
    RequestId id = 0;
    Status s;
    if (p.cls == kRead) {
      p.key = keys.Next();
      s = client.SubmitRead(kTable, p.key, all, &id);
    } else if (p.cls == kWrite) {
      // Each connection updates only its own keys: no two in-flight
      // updates of one key can conflict.
      Value key = keys.Next();
      key = key - key % kConnections + ctx.worker;
      MakeRow(key, rng.Next() >> 16, &row);
      s = client.SubmitUpdate(kTable, key, kPairMask, row, &id);
    } else {
      for (uint32_t i = 0; i < kBatch; ++i) p.keys.push_back(keys.Next());
      s = client.SubmitMultiRead(kTable, p.keys, all, &id);
    }
    if (ctx.traced && measure) out.submit.Record(NowNs() - p.t0);
    if (s.ok()) {
      pending.emplace(id, std::move(p));
    } else {
      out.Account(p.cls, s, p.t0, measure);
    }
  }
  while (!pending.empty() && client.connected()) await_oldest();
  if (!pending.empty()) out.Wrong("connection lost with requests in flight");
  client.Close();
}

}  // namespace

Report RunWire(const Options& o) {
  Report rep;
  std::unique_ptr<Database> db;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    auto t0 = Clock::now();
    db = std::make_unique<Database>();
    Preload(db.get(), kRows, [](Value k) { return Formula(k, kValueCol); });
    setups.push_back(SecsSince(t0));
  }
  rep.Set("setup_s", Median(setups));
  rep.Set("merge.insert_rows_at_start",
          db->Metrics().CounterValue("lstore_merge_insert_rows_total"));

  ServerConfig cfg;
  cfg.workers = kServerWorkers;
  Server server(db.get(), cfg);
  bench::Must(server.Start(), "start server");
  auto body = [&](WorkerCtx& ctx) { Connection(server.port(), o.seed, ctx); };

  WindowResult r = Measure(o, *db, kConnections, 0.5, body, nullptr, &rep);
  // At this depth admission control has no reason to answer Busy; a
  // Busy answer would count as a failed operation.
  const uint64_t busy = server.stats().rejected_busy;

  ScanStats scans;
  const uint64_t expect = FormulaSum(kRows, kScanCol);
  {
    Client client;
    bench::Must(client.Connect("127.0.0.1", server.port()), "connect");
    for (int i = 0; i < kScans; ++i) {
      uint64_t s0 = NowNs();
      uint64_t sum = 0, rows = 0;
      Status s = client.Sum(kTable, kScanCol, Client::QuerySpec{}, &sum, &rows);
      uint64_t dur = NowNs() - s0;
      scans.Add(s, rows, dur);
      if (s.ok() && (sum != expect || rows != kRows)) {
        rep.Wrong("wire Sum returned " + std::to_string(sum) + " over " +
                  std::to_string(rows) + " rows, expected " +
                  std::to_string(expect));
      }
    }
    client.Close();
  }
  server.Stop();
  rep.Count(scans);
  SetScanMetrics(scans, &rep);

  std::printf("wire: %.0f ops/s over %u connections at depth %u, %llu Busy\n",
              rep.values["ops_s"], kConnections, kDepth,
              static_cast<unsigned long long>(busy));
  return rep;
}

}  // namespace perfbench
}  // namespace lstore
