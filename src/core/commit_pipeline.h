// The single commit pipeline (Section 5.1.1 / 5.1.3).
//
// One code path serves single-table commits (Table::CommitTxn is a
// thin wrapper passing {this}) and cross-table transactions
// (Database::CommitTxn passes every registered table). The pipeline
// filters the actual participants out of the transaction's read and
// write sets, so a database-wide commit touches only the tables the
// transaction used:
//
//   1. acquire the commit time, enter pre-commit,
//   2. validate each read participant's share of the readset,
//   3. reach the durability point:
//        - one logged writer: a commit record in that table's log,
//          then SyncTo it,
//        - several logged writers: payload records stay in the table
//          logs WITHOUT per-table commit records; each participant log
//          is synced, then ONE record in the database commit log is
//          appended and synced as the whole transaction's commit
//          point, so a crash can never split it across tables,
//      concurrent committers share writes and fsyncs through the logs'
//      own group commit (FramedLog::SyncTo),
//   4. flip the state in the shared manager — the in-memory commit
//      point,
//   5. stamp Start Time slots and retire the manager entry.

#ifndef LSTORE_CORE_COMMIT_PIPELINE_H_
#define LSTORE_CORE_COMMIT_PIPELINE_H_

#include <vector>

#include "common/status.h"
#include "log/commit_log.h"
#include "txn/transaction.h"

namespace lstore {

class Table;
class TransactionManager;

/// Commit `txn` across whichever of `tables` it actually read or
/// wrote. With several logged writers and a `commit_log` (durable
/// databases), one commit-log record is the single atomic durability
/// point; without one (standalone tables, in-memory databases) each
/// logged writer gets its own commit record.
Status CommitAcrossTables(TransactionManager& tm, Transaction* txn,
                          const std::vector<Table*>& tables,
                          CommitLog* commit_log = nullptr);

/// Abort `txn`: append abort records to write participants' logs and
/// tombstone the writeset (Section 5.1.3 — no physical removal).
/// `durable_abort` flushes the abort records — required only when the
/// durability step may already have flushed a commit record for this
/// transaction (replay treats the later abort as authoritative, so it
/// must not die in the buffer); ordinary aborts have no commit record
/// anywhere and replay aborts them regardless.
void AbortAcrossTables(TransactionManager& tm, Transaction* txn,
                       const std::vector<Table*>& tables,
                       bool durable_abort = false);

}  // namespace lstore

#endif  // LSTORE_CORE_COMMIT_PIPELINE_H_
