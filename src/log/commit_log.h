// Database-level commit log: the single atomic commit point for
// cross-table transactions.
//
// The per-table redo logs carry only payload records (tail/insert
// appends) for a cross-table transaction; whether the transaction
// committed is decided by exactly ONE record here. The durability
// order is: flush every participant's redo log first, then append and
// flush the commit record — so a commit record's presence implies all
// of its payloads are durable, and its absence (crash anywhere before
// the commit-log flush, including a torn final record) aborts the
// transaction on every participant at recovery. Single-table commits
// keep their per-table commit records and never touch this log.
//
// Each record carries the participant tables with the redo-log LSN
// each had reached at commit time. Checkpoint truncation uses those
// watermarks as the low-water mark: a record whose participants are
// all covered by the latest checkpoint is dead weight, but records are
// only dropped from the contiguous prefix so LSN numbering stays
// stable (the shared truncation-point scheme of log/framed_log.h,
// which also owns the framing, torn-tail repair, and truncation
// machinery — this class supplies only the commit payload codec).

#ifndef LSTORE_LOG_COMMIT_LOG_H_
#define LSTORE_LOG_COMMIT_LOG_H_

#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/framed_log.h"

namespace lstore {

/// One committed cross-table transaction — or, with `aborted` set, an
/// abort marker: written when the commit record's own flush failed and
/// may or may not have reached the disk, so ONE authoritative record
/// here (not N per-table abort records) decides the outcome for every
/// participant at recovery.
struct CommitLogRecord {
  TxnId txn_id = 0;
  Timestamp commit_time = 0;
  bool aborted = false;
  struct Participant {
    std::string table;       ///< table name (log files are named by it)
    uint64_t last_lsn = 0;   ///< that table's redo-log LSN at commit
  };
  std::vector<Participant> participants;  ///< empty on abort markers
};

class CommitLog {
 public:
  using ReplayStats = FramedLog::ScanStats;

  CommitLog() : framed_(&CommitLog::ValidatePayload) {}

  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Open for appending. An existing file is scanned to restore the
  /// LSN counter; a torn tail (crash mid-append) is truncated away —
  /// a torn commit record never committed, on any participant.
  /// `replay_fn` (optional) receives every well-formed record during
  /// that same scan, so restart recovery reads the file once.
  Status Open(const std::string& path, bool truncate,
              const std::function<void(const CommitLogRecord&, uint64_t lsn)>&
                  replay_fn = nullptr);
  void Close() { framed_.Close(); }
  bool is_open() const { return framed_.is_open(); }

  /// Append one commit record (buffered); returns its LSN.
  uint64_t Append(const CommitLogRecord& rec);

  /// Make every record up to `lsn` written (and, with `fsync`,
  /// durable); see FramedLog::SyncTo. The sync that covers a record
  /// IS that transaction's commit point.
  Status SyncTo(uint64_t lsn, bool fsync) {
    return framed_.SyncTo(lsn, fsync);
  }

  uint64_t last_lsn() const { return framed_.last_lsn(); }

  /// Wire registry metrics (obs/metrics.h) into the framed core.
  void set_metrics(const FramedLogMetrics& m) { framed_.set_metrics(m); }

  /// Checkpoint quiesce point: held shared by a cross-table commit
  /// from its first participant sync to its commit-record append, and
  /// exclusive by the checkpoint while it reads log watermarks.
  std::shared_mutex& quiesce_mu() { return quiesce_mu_; }

  /// Deliver every well-formed record of the live log in append order
  /// (flushes the buffer first; does not fsync).
  Status Scan(const std::function<void(const CommitLogRecord&, uint64_t lsn)>&
                  fn);

  /// Drop every record with LSN <= watermark (the checkpoint-derived
  /// low-water mark) via the framed core's truncation. With a `seal`
  /// sink (log archiving), the retired prefix is handed over durably
  /// before the truncated log is published.
  Status TruncateTo(uint64_t watermark_lsn,
                    const FramedLog::SealSink& seal = nullptr) {
    return framed_.TruncateTo(watermark_lsn, seal);
  }

  /// Replay a closed commit-log file, stopping cleanly at the first
  /// torn or corrupt frame. A missing file is an empty log (OK).
  /// Archive segments sealed from this log replay the same way.
  static Status Replay(
      const std::string& path,
      const std::function<void(const CommitLogRecord&, uint64_t lsn)>& fn,
      ReplayStats* stats = nullptr);

  /// Serialize / deserialize one payload (exposed for tests).
  static void EncodePayload(const CommitLogRecord& rec, std::string* out);
  static bool DecodePayload(const char* data, size_t size,
                            CommitLogRecord* rec);

  /// The framed-log codec for commit payloads (always one LSN).
  static bool ValidatePayload(const char* payload, size_t len,
                              uint64_t* lsn_count);

 private:
  FramedLog framed_;
  std::shared_mutex quiesce_mu_;
};

}  // namespace lstore

#endif  // LSTORE_LOG_COMMIT_LOG_H_
