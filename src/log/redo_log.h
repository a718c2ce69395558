// Redo-only write-ahead log for tail pages.
//
// Section 5.1.3: base pages are read-only (no logging); tail pages are
// append-only and never updated in place, so only *redo* records are
// required. Aborted transactions leave tombstones (the aborted stamp)
// rather than being undone physically. The Indirection column is
// rebuilt at recovery from the Base RID column / backpointers, so it
// needs no log of its own (recovery option 2 in the paper).
//
// Record framing, LSN numbering, torn-tail repair, and truncation are
// the shared framed-log core's (log/framed_log.h): this class is a
// thin wrapper that owns only the redo payload codec — what the bytes
// of a record MEAN. Records are numbered 1, 2, ... in append order; a
// truncated log starts with a truncation-point record whose base_lsn
// restores the numbering, so LSNs are stable across truncations and a
// checkpoint manifest can reference its watermark by LSN alone.

#ifndef LSTORE_LOG_REDO_LOG_H_
#define LSTORE_LOG_REDO_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/framed_log.h"

namespace lstore {

enum class LogRecordType : uint8_t {
  kTailAppend = 1,   ///< update/delete tail record (regular tail pages)
  kInsertAppend = 2, ///< insert into table-level tail pages
  kCommit = 3,
  kAbort = 4,
  kTruncationPoint = 5, ///< head of a truncated log; carries the LSN base
  kBatch = 6,        ///< one frame holding N append records (batched ops)
};

/// In-memory form of a redo record.
struct LogRecord {
  LogRecordType type;
  TxnId txn_id = 0;
  Timestamp commit_time = 0;  // kCommit only
  uint64_t range_id = 0;
  uint32_t seq = 0;           // tail seq (kTailAppend) / slot+1 (kInsertAppend)
  uint32_t base_slot = 0;
  uint32_t backptr = 0;
  uint64_t schema_encoding = 0;
  /// Raw Start Time at append: the writer's txn id, or — for pre-image
  /// snapshot records — the copied start time of the old version.
  uint64_t start_raw = 0;
  ColumnMask mask = 0;              // materialized data columns
  std::vector<Value> values;        // one per set bit of mask, low→high
  uint64_t base_lsn = 0;            // kTruncationPoint only
};

/// Append-only log writer with group commit: appends accumulate in a
/// buffer, and one flush makes every concurrent committer's records
/// durable (FramedLog::SyncTo).
class RedoLog {
 public:
  using ReplayStats = FramedLog::ScanStats;

  RedoLog() : framed_(&RedoLog::ValidatePayload) {}

  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  /// Open for appending. An existing file is scanned to restore the
  /// LSN counter; a torn tail (crash mid-write) is truncated away so
  /// new appends are not hidden behind garbage.
  Status Open(const std::string& path, bool truncate) {
    return framed_.Open(path, truncate);
  }
  void Close() { framed_.Close(); }
  bool is_open() const { return framed_.is_open(); }

  /// Append one record; returns its LSN.
  uint64_t Append(const LogRecord& rec);

  /// Streaming builder for a batch frame: records are encoded as they
  /// are added, so the writer never retains N LogRecords. One Batch
  /// becomes ONE log frame (one length/checksum envelope, one buffer
  /// append, one mutex acquisition) — the amortization behind
  /// InsertBatch / UpdateBatch.
  class Batch {
   public:
    void Add(const LogRecord& rec);
    size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

   private:
    friend class RedoLog;
    size_t count_ = 0;
    std::string body_;  ///< concatenated [len varint][payload] entries
    std::string scratch_;
  };

  /// Append a batch as one frame. Each contained record still
  /// receives its own LSN; returns the LSN of the last one (0 when
  /// empty). Replay delivers the contained records individually.
  uint64_t AppendBatch(const Batch& batch);
  uint64_t AppendBatch(const std::vector<LogRecord>& recs);

  /// LSN of the most recently appended record (0 = empty log).
  uint64_t last_lsn() const { return framed_.last_lsn(); }

  /// Make every record up to `lsn` written (and, with `fsync`,
  /// durable); see FramedLog::SyncTo.
  Status SyncTo(uint64_t lsn, bool fsync) {
    return framed_.SyncTo(lsn, fsync);
  }

  /// Wire registry metrics (obs/metrics.h) into the framed core.
  void set_metrics(const FramedLogMetrics& m) { framed_.set_metrics(m); }

  /// Drop every record with LSN <= watermark (checkpoint truncation,
  /// Section 5.1.3) via the framed core's three-phase low-lock
  /// rewrite. With a `seal` sink (log archiving), the retired prefix
  /// is handed over durably before the truncated log is published.
  Status TruncateTo(uint64_t watermark_lsn,
                    const FramedLog::SealSink& seal = nullptr) {
    return framed_.TruncateTo(watermark_lsn, seal);
  }

  /// Replay every well-formed record, stopping cleanly at the first
  /// torn or corrupt frame (crash tail). Static: operates on a closed
  /// file. The extended overload reports each record's LSN and fills
  /// `stats` (recovered-up-to LSN, torn-tail flag). Archive segments
  /// sealed from this log replay through the same entry point.
  static Status Replay(const std::string& path,
                       const std::function<void(const LogRecord&)>& fn);
  static Status Replay(
      const std::string& path,
      const std::function<void(const LogRecord&, uint64_t lsn)>& fn,
      ReplayStats* stats);

  /// Serialize / deserialize one payload (exposed for tests).
  static void EncodePayload(const LogRecord& rec, std::string* out);
  static bool DecodePayload(const char* data, size_t size, LogRecord* rec);

  /// The framed-log codec for redo payloads: full validation (batch
  /// sub-records included) + LSN count. Exposed so the archive
  /// stitcher can scan sealed redo segments.
  static bool ValidatePayload(const char* payload, size_t len,
                              uint64_t* lsn_count);

 private:
  FramedLog framed_;
};

}  // namespace lstore

#endif  // LSTORE_LOG_REDO_LOG_H_
