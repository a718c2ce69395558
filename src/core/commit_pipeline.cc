#include "core/commit_pipeline.h"

#include <algorithm>
#include <shared_mutex>

#include "core/table.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// Tables of `tables` that appear as an owner in the readset
/// (`readers`) or writeset (`writers`). Owners outside `tables` are
/// ignored: they belong to another engine sharing the manager and are
/// committed by that engine's own pipeline invocation.
void Participants(const Transaction& txn, const std::vector<Table*>& tables,
                  std::vector<Table*>* readers, std::vector<Table*>* writers) {
  auto add = [](std::vector<Table*>* v, Table* t) {
    if (std::find(v->begin(), v->end(), t) == v->end()) v->push_back(t);
  };
  for (Table* t : tables) {
    for (const WriteEntry& w : txn.writeset()) {
      if (w.owner == t) {
        add(writers, t);
        add(readers, t);  // validation also covers own-write tables
        break;
      }
    }
  }
  for (Table* t : tables) {
    for (const ReadEntry& e : txn.readset()) {
      if (e.owner == t) {
        add(readers, t);
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

Status CommitAcrossTables(TransactionManager& tm, Transaction* txn,
                          const std::vector<Table*>& tables,
                          CommitLog* commit_log) {
  if (txn->finished()) return Status::InvalidArgument("already finished");
  std::vector<Table*> readers, writers;
  Participants(*txn, tables, &readers, &writers);

  // 1. Acquire commit time and enter pre-commit (Section 5.1.1).
  Timestamp commit_time = tm.EnterPreCommit(txn);

  // 2. Validation (per isolation level) against every participant.
  for (Table* t : readers) {
    Status s = t->ValidateReads(txn, commit_time);
    if (!s.ok()) {
      t->obs_.validation_aborts->Increment();
      AbortAcrossTables(tm, txn, writers);
      return s;
    }
  }

  // 3. Durability point (Section 5.1.3). Read-only participants write
  // nothing: their logs carry no records of this transaction to
  // resolve at replay. A single logged writer appends its per-table
  // commit record and syncs it; several logged writers of a durable
  // database commit through ONE commit-log record — all-or-nothing
  // across tables. Concurrent committers share each log's flushes.
  std::vector<Table*> logged;
  bool sync = false;
  for (Table* t : writers) {
    if (t->log_ == nullptr) continue;
    logged.push_back(t);
    sync = sync || t->config_.sync_commit;
  }
  const bool cross = commit_log != nullptr && logged.size() > 1;
  Status ds = Status::OK();
  if (cross) {
    // Every participant log is synced BEFORE the commit-log record is
    // appended: a durable commit record implies durable payloads.
    CommitLogRecord rec;
    rec.txn_id = txn->id();
    rec.commit_time = commit_time;
    uint64_t lsn = 0;
    {
      std::shared_lock<std::shared_mutex> quiesce(commit_log->quiesce_mu());
      Stage flush(nullptr, "log_flush");
      for (Table* t : logged) {
        // last_lsn is an upper bound on this transaction's payload LSNs
        // in that log (our appends are already in); a concurrent append
        // raising it merely delays commit-log truncation.
        uint64_t last = t->log_->last_lsn();
        rec.participants.push_back({t->name(), last});
        ds = t->log_->SyncTo(last, sync);
        if (!ds.ok()) break;
      }
      flush.End();
      if (ds.ok()) lsn = commit_log->Append(rec);
    }
    if (ds.ok()) {
      Stage commit_point(nullptr, "commit_fsync");
      ds = commit_log->SyncTo(lsn, sync);
    }
  } else {
    Stage flush(nullptr, "log_flush");
    for (Table* t : logged) {
      ds = t->WriteCommitRecord(txn, commit_time);
      if (!ds.ok()) break;
    }
  }
  if (!ds.ok()) {
    // A commit record may already be written (per-table) or appended
    // (commit log); the abort must be durable to override it. For a
    // cross-table transaction the authoritative abort is ONE marker in
    // the commit log — per-table abort records could land on a subset
    // of participants and re-split the transaction. Best effort: if
    // neither record persists, recovery aborts it everywhere anyway.
    if (cross) {
      CommitLogRecord marker;
      marker.txn_id = txn->id();
      marker.aborted = true;
      (void)commit_log->SyncTo(commit_log->Append(marker), sync);
    }
    AbortAcrossTables(tm, txn, writers, /*durable_abort=*/true);
    return ds;
  }

  // 4. Publish: the state flip is the in-memory commit point for all
  // tables (readers that race see either the entry or the stamp).
  // Stage metrics land in the first participant's registry — tables of
  // a database share one registry, so the choice is cosmetic there.
  Table* metered = !writers.empty() ? writers[0]
                   : !readers.empty() ? readers[0]
                                      : nullptr;
  Stage publish(metered != nullptr ? metered->obs_.commit_publish_ns : nullptr,
                nullptr);
  tm.MarkCommitted(txn);

  // 5. Post-commit: stamp Start Time slots so the manager entry can
  // be retired.
  for (Table* t : writers) t->StampWrites(txn, commit_time);
  tm.Retire(txn->id());
  txn->set_finished();
  if (metered != nullptr) metered->obs_.commits->Add(1);
  return Status::OK();
}

void AbortAcrossTables(TransactionManager& tm, Transaction* txn,
                       const std::vector<Table*>& tables,
                       bool durable_abort) {
  if (txn->finished()) return;
  std::vector<Table*> readers, writers;
  Participants(*txn, tables, &readers, &writers);
  tm.MarkAborted(txn);
  for (Table* t : writers) t->WriteAbortRecord(txn, durable_abort);
  // Tombstone the writeset (Section 5.1.3: aborted tail records are
  // only marked invalid; space is reclaimed by compression).
  for (Table* t : writers) t->StampWrites(txn, kAbortedStamp);
  tm.Retire(txn->id());
  txn->set_finished();
  Table* metered = !writers.empty() ? writers[0]
                   : !readers.empty() ? readers[0]
                                      : nullptr;
  if (metered != nullptr) metered->obs_.aborts->Add(1);
}

}  // namespace lstore
