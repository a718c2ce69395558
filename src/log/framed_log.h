// Shared framed-log core: the one implementation of the durability
// frame format used by the redo log, the commit log, and the archive
// stitcher.
//
// Frame format: [payload_len varint][payload][fnv1a32 over payload].
// Records carry implicit LSNs, numbered 1, 2, ... in append order; a
// frame may carry several LSNs (batch frames). A log whose prefix was
// truncated starts with a truncation-point frame (payload tag 5 +
// varint base) restoring the numbering, so LSNs are stable across
// truncations and archival.
//
// The core owns buffered appends, group commit, short-write (ENOSPC)
// recovery, fail-stop on a failed fsync, open-time LSN restore +
// torn-tail repair, the three-phase low-lock truncation, and the frame
// scan every reader shares. What a payload *means* is the wrapper's
// business: the core calls a Codec to validate a record payload and
// learn how many LSNs it carries, so RedoLog, CommitLog and the archive
// reader cannot diverge on framing, torn-tail, or truncation behavior.
//
// Group commit is flush pipelining on two LSN watermarks (Aether,
// Johnson et al., VLDB 2010): appends frame into an active buffer under
// the append mutex alone, and SyncTo is the one flush. Lock order:
// truncate_mu_ → the flusher role → mu_.
//
// Truncation can archive instead of delete: TruncateTo accepts a
// SealSink that receives the retired prefix as a self-describing
// framed byte string (leading truncation point + the retired frames),
// which is exactly the content of an archive segment — replayable by
// the same scan as a live log.

#ifndef LSTORE_LOG_FRAMED_LOG_H_
#define LSTORE_LOG_FRAMED_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace lstore {

/// Registry handles a framed log records into (all optional): frames /
/// bytes appended, fsyncs, append/flush latencies, and the group-commit
/// stage. Wired by the owner (Table for redo logs, Database for the
/// commit log) with per-log metric names, except the group-commit pair,
/// which every log of a database shares; a default-constructed struct
/// (all null) records nothing.
struct FramedLogMetrics {
  Counter* appends = nullptr;         ///< record frames appended
  Counter* append_bytes = nullptr;    ///< framed bytes appended
  Counter* fsyncs = nullptr;          ///< fsyncs issued by a flush
  Counter* fsync_failures = nullptr;  ///< failed fsyncs (log fails stop)
  Histogram* append_ns = nullptr;     ///< Append latency (lock + buffer)
  Histogram* flush_ns = nullptr;      ///< one flush: write [+ fsync]
  /// SyncTo time spent waiting for another thread's flush.
  Histogram* queue_wait_ns = nullptr;
  /// SyncTo calls per flush: each call counts once, in the first flush
  /// that starts after it (its mean is exactly calls per flush).
  Histogram* batch_size = nullptr;
  /// Marked busy by the thread doing a flush's write + fsync, so a
  /// wedged fsync shows up as slow/stalled in Health().
  std::shared_ptr<Heartbeat> flusher;
};

/// Point `m`'s group-commit pair at the registry-wide
/// lstore_commit_queue_wait_ns / lstore_group_commit_batch_size
/// histograms, which every log of one registry shares.
void WireGroupCommitMetrics(MetricsRegistry* registry, FramedLogMetrics* m);

/// FNV-1a 32-bit checksum over a byte range (per-frame checksums).
uint32_t Fnv1a32(const char* data, size_t n);

/// Incremental FNV-1a 64-bit (whole-file checksums of checkpoints).
inline constexpr uint64_t kFnv1a64Seed = 14695981039346656037ull;
inline uint64_t Fnv1a64(const char* data, size_t n,
                        uint64_t h = kFnv1a64Seed) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

class FramedLog {
 public:
  /// Outcome of scanning a framed file (replay, open repair, truncate).
  struct ScanStats {
    uint64_t base_lsn = 0;     ///< LSN numbering base (truncation point)
    uint64_t last_lsn = 0;     ///< LSN of the last well-formed record
    size_t bytes_consumed = 0; ///< file prefix covered by good frames
    bool clean_end = true;     ///< false: stopped at a torn/corrupt frame
  };

  /// Validates one record payload and reports how many LSNs it
  /// carries (1 for plain records, N for batch frames). Returning
  /// false marks the frame malformed: the scan stops there and treats
  /// the rest of the file as a torn tail. Truncation-point frames are
  /// handled by the core and never reach the codec.
  using Codec =
      std::function<bool(const char* payload, size_t len, uint64_t* lsn_count)>;

  /// Scan callback: one well-formed record frame with its first LSN,
  /// LSN count, and byte span [begin, end) in the scanned data.
  using FrameFn = std::function<void(std::string_view payload,
                                     uint64_t first_lsn, uint64_t lsn_count,
                                     size_t begin, size_t end)>;

  /// Archive sink for TruncateTo: receives the retired prefix covering
  /// LSNs [lo, hi] as a self-describing framed byte string (leading
  /// truncation point + retired frames). Must make the bytes durable
  /// before returning OK; an error aborts the truncation, leaving the
  /// log intact (retried at the next checkpoint).
  using SealSink =
      std::function<Status(uint64_t lo, uint64_t hi, std::string_view bytes)>;

  /// Payload tag of a truncation-point frame (shared by every log).
  static constexpr uint8_t kTruncationPointTag = 5;

  explicit FramedLog(Codec codec) : codec_(std::move(codec)) {}
  ~FramedLog() { Close(); }

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Open for appending. An existing file is scanned to restore the
  /// LSN counter; a torn tail (crash mid-write) is truncated away so
  /// new appends are not hidden behind garbage. `replay_fn` (optional)
  /// receives every well-formed frame during that same scan, so
  /// restart recovery reads the file once.
  Status Open(const std::string& path, bool truncate,
              const FrameFn& replay_fn = nullptr);
  void Close();
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Append one framed payload carrying `lsn_count` LSNs (buffered).
  /// Returns the last LSN it received (0 when lsn_count == 0).
  uint64_t Append(std::string_view payload, uint64_t lsn_count);

  /// Make every record up to `lsn` written to the OS and, with
  /// `fsync`, durable. Returns at once when `written_lsn` (or
  /// `synced_lsn`) covers `lsn`; otherwise waits until the running
  /// flush covers it or no flush runs, then becomes the flusher: swap
  /// the buffers under mu_, write (+ fsync) the swapped one with no
  /// lock held, advance the watermark. Callers arriving during a flush
  /// share the next one: no leader, no queue, no timed window. A short
  /// write (ENOSPC) keeps the unwritten suffix for the next flush. A
  /// failed fsync fails the log stop: this and every later SyncTo
  /// return the same IOError, since the kernel may already have
  /// dropped the dirty pages a retry would claim to sync.
  Status SyncTo(uint64_t lsn, bool fsync);

  /// LSN of the most recently appended record (0 = empty log).
  uint64_t last_lsn() const {
    return last_lsn_.load(std::memory_order_acquire);
  }
  /// Every record up to this LSN has been written to the OS.
  uint64_t written_lsn() const {
    return written_lsn_.load(std::memory_order_acquire);
  }
  /// Every record up to this LSN has been fsynced by this handle.
  uint64_t synced_lsn() const {
    return synced_lsn_.load(std::memory_order_acquire);
  }

  /// Wire registry metrics (obs/metrics.h). Must be called before the
  /// log sees concurrent use (handles are read without a lock).
  void set_metrics(const FramedLogMetrics& m) { metrics_ = m; }

  /// Drop every record with LSN <= watermark: the retained tail is
  /// rewritten behind a truncation-point record via temp file + atomic
  /// rename + directory fsync. Appends never wait for it; the bulk of
  /// the work (scanning the prefix, writing the retained tail) runs
  /// without the flusher role too, so SyncTo callers wait only for the
  /// O(appends-since-scan) suffix copy and handle swap. A batch frame
  /// straddling the watermark is retained whole; the truncation
  /// point's LSN base backs up accordingly so numbering stays stable.
  ///
  /// With a `seal` sink, the retired prefix is handed over (durably)
  /// BEFORE the truncated log is published — archival turns the
  /// deletion into a move, and a crash between the two leaves at worst
  /// an overlapping segment that the next seal supersedes.
  Status TruncateTo(uint64_t watermark_lsn, const SealSink& seal = nullptr);

  // --- static framing helpers ----------------------------------------------

  /// Frame `payload` ([len][payload][fnv1a32]) onto `out`.
  static void AppendFrame(std::string* out, std::string_view payload);

  /// A complete truncation-point frame restoring `base_lsn`.
  static std::string TruncationPointFrame(uint64_t base_lsn);

  /// Scan `data`, invoking `fn` per good record frame; stops cleanly
  /// at the first torn or corrupt frame. The single source of truth
  /// for frame parsing.
  static void ScanFrames(std::string_view data, const Codec& codec,
                         const FrameFn& fn, ScanStats* stats);

  /// Scan a whole file (missing file = IOError).
  static Status ScanFile(const std::string& path, const Codec& codec,
                         const FrameFn& fn, ScanStats* stats);

  /// LSN base of the file's leading truncation-point frame (0 when
  /// the file is missing, empty, or starts with a record frame).
  static uint64_t ReadBaseLsn(const std::string& path);

 private:
  /// Swap the active buffer out and write it (+ fsync) to fd_, then
  /// advance the watermarks (caller holds the flusher role).
  Status Flush(bool fsync);

  /// RAII: waits for and holds the flusher role. With `mark`, stops
  /// waiting as soon as *mark reaches `lsn` and then holds nothing, so
  /// a caller covered by the flush that just ended never queues behind
  /// the next one (as it would on a mutex held across the flush).
  class FlusherRole {
   public:
    explicit FlusherRole(FramedLog* log,
                         const std::atomic<uint64_t>* mark = nullptr,
                         uint64_t lsn = 0);
    ~FlusherRole();
    FlusherRole(const FlusherRole&) = delete;
    FlusherRole& operator=(const FlusherRole&) = delete;
    bool held() const { return held_; }

   private:
    FramedLog* const log_;
    bool held_ = false;
  };

  /// Push the accumulated append/byte tallies to the registry
  /// counters (caller holds mu_). Appends tally into plain members on
  /// the mutex-protected path and publish every 64 frames and at every
  /// flush, so a sub-microsecond append never pays sharded-atomic
  /// traffic of its own.
  void PublishPendingLocked();

  Codec codec_;
  std::string path_;
  /// Serializes whole truncations against each other.
  std::mutex truncate_mu_;
  /// Guards flusher_busy_; flush_cv_ signals each change of it.
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  /// One thread holds the flusher role; only it touches fd_ and
  /// flushing_.
  bool flusher_busy_ = false;
  /// The append mutex: guards active_ and the LSN counter's writers.
  std::mutex mu_;
  int fd_ = -1;
  std::string active_;    ///< frames appended since the last swap
  std::string flushing_;  ///< swapped out; holds a short write's suffix
  /// Sticky fsync failure (fail-stop): written once, before failed_ is
  /// set; read only after failed_ is seen set.
  Status error_;
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> last_lsn_{0};
  std::atomic<uint64_t> written_lsn_{0};
  std::atomic<uint64_t> synced_lsn_{0};
  std::atomic<uint64_t> sync_calls_{0};  ///< since the last swap
  FramedLogMetrics metrics_;
  uint64_t pending_appends_ = 0;      ///< under mu_, batched to metrics_
  uint64_t pending_append_bytes_ = 0; ///< under mu_, batched to metrics_
};

}  // namespace lstore

#endif  // LSTORE_LOG_FRAMED_LOG_H_
