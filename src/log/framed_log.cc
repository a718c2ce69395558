#include "log/framed_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

/// Read a whole file into `out`; false if it cannot be opened.
bool SlurpFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out->append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

/// Write all of [data, data + n) to `fd`; returns the bytes written,
/// short only on an error (errno set) or a zero-byte write.
size_t WriteFully(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;
    done += static_cast<size_t>(w);
  }
  return done;
}

/// fsync the directory containing `path` so a rename inside it
/// survives power loss (file data alone is not enough).
void SyncDirOf(const std::string& path) {
  std::string dir = path.find_last_of('/') == std::string::npos
                        ? "."
                        : path.substr(0, path.find_last_of('/'));
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void WireGroupCommitMetrics(MetricsRegistry* registry, FramedLogMetrics* m) {
  m->queue_wait_ns = registry->GetHistogram(
      "lstore_commit_queue_wait_ns",
      "SyncTo wait for another thread's log flush (ns)");
  m->batch_size = registry->GetHistogram(
      "lstore_group_commit_batch_size",
      "SyncTo calls per log flush (commits sharing one write/fsync)");
}

uint32_t Fnv1a32(const char* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Static framing helpers
// ---------------------------------------------------------------------------

void FramedLog::AppendFrame(std::string* out, std::string_view payload) {
  PutVarint64(out, payload.size());
  out->append(payload);
  uint32_t crc = Fnv1a32(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

std::string FramedLog::TruncationPointFrame(uint64_t base_lsn) {
  std::string payload;
  payload.push_back(static_cast<char>(kTruncationPointTag));
  PutVarint64(&payload, base_lsn);
  std::string frame;
  AppendFrame(&frame, payload);
  return frame;
}

void FramedLog::ScanFrames(std::string_view data, const Codec& codec,
                           const FrameFn& fn, ScanStats* stats) {
  size_t pos = 0;
  uint64_t lsn = 0;
  stats->clean_end = true;
  while (pos < data.size()) {
    size_t frame_start = pos;
    uint64_t len;
    if (!GetVarint64(data.data(), data.size(), &pos, &len)) {
      stats->clean_end = false;  // torn length varint
      pos = frame_start;
      break;
    }
    size_t remain = data.size() - pos;
    // Overflow-safe: a torn tail can present an absurd length whose
    // naive `pos + len` bound check would wrap around.
    if (remain < sizeof(uint32_t) || len > remain - sizeof(uint32_t)) {
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    const char* payload = data.data() + pos;
    uint32_t stored;
    std::memcpy(&stored, data.data() + pos + len, sizeof(stored));
    if (Fnv1a32(payload, len) != stored) {  // corrupt frame
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    if (len > 0 &&
        static_cast<uint8_t>(payload[0]) == kTruncationPointTag) {
      size_t sub = 1;
      uint64_t base = 0;
      if (!GetVarint64(payload, len, &sub, &base) || sub != len) {
        stats->clean_end = false;
        pos = frame_start;
        break;
      }
      pos += len + sizeof(uint32_t);
      lsn = base;
      stats->base_lsn = base;
      stats->last_lsn = lsn;
      continue;
    }
    uint64_t count = 0;
    if (!codec(payload, len, &count)) {  // malformed payload
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    pos += len + sizeof(uint32_t);
    if (fn) {
      fn(std::string_view(payload, len), lsn + 1, count, frame_start, pos);
    }
    lsn += count;
    if (count > 0) stats->last_lsn = lsn;
  }
  stats->bytes_consumed = pos;
}

Status FramedLog::ScanFile(const std::string& path, const Codec& codec,
                           const FrameFn& fn, ScanStats* stats) {
  std::string data;
  if (!SlurpFile(path, &data)) {
    return Status::IOError("cannot open log for scan: " + path);
  }
  ScanStats local;
  ScanFrames(data, codec, fn, stats != nullptr ? stats : &local);
  return Status::OK();
}

uint64_t FramedLog::ReadBaseLsn(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char head[32];
  ssize_t got = ::pread(fd, head, sizeof(head), 0);
  ::close(fd);
  size_t n = got > 0 ? static_cast<size_t>(got) : 0;
  size_t pos = 0;
  uint64_t len;
  if (!GetVarint64(head, n, &pos, &len) || len == 0 || len > n - pos) return 0;
  if (static_cast<uint8_t>(head[pos]) != kTruncationPointTag) return 0;
  size_t sub = pos + 1;
  uint64_t base = 0;
  if (!GetVarint64(head, pos + len, &sub, &base)) return 0;
  return base;
}

// ---------------------------------------------------------------------------
// Appender
// ---------------------------------------------------------------------------

Status FramedLog::Open(const std::string& path, bool truncate,
                       const FrameFn& replay_fn) {
  Close();
  FlusherRole role(this);
  path_ = path;
  active_.clear();
  flushing_.clear();
  error_ = Status::OK();
  failed_.store(false, std::memory_order_release);
  uint64_t last = 0;
  if (!truncate) {
    // Restore the LSN counter from the existing records and repair a
    // torn tail: appending after garbage would hide the new records
    // from every future replay.
    std::string data;
    if (SlurpFile(path, &data) && !data.empty()) {
      ScanStats stats;
      ScanFrames(data, codec_, replay_fn, &stats);
      last = stats.last_lsn;
      if (!stats.clean_end) {
        if (::truncate(path.c_str(),
                       static_cast<off_t>(stats.bytes_consumed)) != 0) {
          return Status::IOError("cannot repair torn log tail: " + path);
        }
      }
    }
  }
  last_lsn_.store(last, std::memory_order_release);
  // The records found on open are in the OS; their durability is not
  // known, so the first fsyncing SyncTo issues a real fsync.
  written_lsn_.store(last, std::memory_order_release);
  synced_lsn_.store(0, std::memory_order_release);
  fd_ = ::open(path.c_str(),
               O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                   (truncate ? O_TRUNC : 0),
               0644);
  if (fd_ < 0) return Status::IOError("cannot open log file: " + path);
  return Status::OK();
}

FramedLog::FlusherRole::FlusherRole(FramedLog* log,
                                    const std::atomic<uint64_t>* mark,
                                    uint64_t lsn)
    : log_(log) {
  auto covered = [&] {
    return mark != nullptr && mark->load(std::memory_order_acquire) >= lsn;
  };
  std::unique_lock<std::mutex> f(log_->flush_mu_);
  log_->flush_cv_.wait(f, [&] { return !log_->flusher_busy_ || covered(); });
  if (covered()) return;
  log_->flusher_busy_ = true;
  held_ = true;
}

FramedLog::FlusherRole::~FlusherRole() {
  if (!held_) return;
  {
    std::lock_guard<std::mutex> f(log_->flush_mu_);
    log_->flusher_busy_ = false;
  }
  log_->flush_cv_.notify_all();
}

void FramedLog::Close() {
  FlusherRole role(this);
  if (fd_ < 0) return;
  (void)Flush(/*fsync=*/false);
  ::close(fd_);
  fd_ = -1;
}

uint64_t FramedLog::Append(std::string_view payload, uint64_t lsn_count) {
  if (lsn_count == 0) return 0;
  // The histogram samples 1 in 64 appends: a clock read costs as much
  // as the append itself, and the distribution only needs a sample. A
  // traced request times every one of its appends regardless (its
  // timeline has to be complete).
  Histogram* sampled = nullptr;
  if (kTraceEnabled && metrics_.append_ns != nullptr) {
    thread_local uint64_t sample_tick = 0;
    if ((sample_tick++ & 63) == 0) sampled = metrics_.append_ns;
  }
  Stage stage(sampled, "log_append");
  std::lock_guard<std::mutex> g(mu_);
  size_t before = active_.size();
  AppendFrame(&active_, payload);
  // Load+store, NOT fetch_add(n)+n: every writer holds mu_ (readers
  // are lock-free), and gcc 12 miscompiles the fetch_add form with a
  // variable operand (the xadd clobbers the addend register, yielding
  // old+old).
  uint64_t last = last_lsn_.load(std::memory_order_relaxed) + lsn_count;
  last_lsn_.store(last, std::memory_order_release);
  ++pending_appends_;
  pending_append_bytes_ += active_.size() - before;
  if (pending_appends_ >= 64) PublishPendingLocked();
  return last;
}

void FramedLog::PublishPendingLocked() {
  if (pending_appends_ == 0) return;
  if (metrics_.appends != nullptr) metrics_.appends->Add(pending_appends_);
  if (metrics_.append_bytes != nullptr) {
    metrics_.append_bytes->Add(pending_append_bytes_);
  }
  pending_appends_ = 0;
  pending_append_bytes_ = 0;
}

Status FramedLog::SyncTo(uint64_t lsn, bool fsync) {
  std::atomic<uint64_t>& mark = fsync ? synced_lsn_ : written_lsn_;
  sync_calls_.fetch_add(1, std::memory_order_relaxed);
  if (!failed_.load(std::memory_order_acquire) &&
      mark.load(std::memory_order_acquire) >= lsn) {
    return Status::OK();
  }
  // Waiting here IS the group commit: the running flush (another
  // thread's) may cover this caller, and otherwise the next one does.
  Stage wait(metrics_.queue_wait_ns, "gc_queue_wait");
  FlusherRole role(this, &mark, lsn);
  wait.End();
  if (failed_.load(std::memory_order_acquire)) return error_;
  if (!role.held()) return Status::OK();  // covered by another's flush
  return Flush(fsync);
}

Status FramedLog::Flush(bool fsync) {
  if (fd_ < 0) return Status::IOError("log not open");
  if (failed_.load(std::memory_order_acquire)) return error_;
  HeartbeatWorkScope work(metrics_.flusher.get());
  Stage stage(metrics_.flush_ns, nullptr);
  uint64_t target;
  {
    std::lock_guard<std::mutex> g(mu_);
    PublishPendingLocked();  // flush = a snapshot-visible point
    // A short write's unwritten suffix stays in front: the file holds
    // a partial frame, and the retry must continue at the same byte.
    if (flushing_.empty()) {
      flushing_.swap(active_);
    } else {
      flushing_.append(active_);
      active_.clear();
    }
    target = last_lsn_.load(std::memory_order_relaxed);
  }
  if (metrics_.batch_size != nullptr) {
    uint64_t calls = sync_calls_.exchange(0, std::memory_order_relaxed);
    if (calls > 0) metrics_.batch_size->Record(calls);
  }
  size_t done = WriteFully(fd_, flushing_.data(), flushing_.size());
  if (done != flushing_.size()) {
    // Drop exactly the written prefix (ENOSPC, EFBIG): re-writing the
    // whole buffer after the partial prefix would corrupt the log
    // mid-file and take every LATER (acknowledged) record down with it
    // at the next open's tail scan.
    flushing_.erase(0, done);
    return Status::IOError("short log write: " + path_);
  }
  flushing_.clear();
  written_lsn_.store(target, std::memory_order_release);
  if (fsync) {
    if (metrics_.fsyncs != nullptr) metrics_.fsyncs->Add(1);
    if (::fsync(fd_) != 0) {
      error_ = Status::IOError(std::string("fsync failed (log stopped): ") +
                               std::strerror(errno) + ": " + path_);
      failed_.store(true, std::memory_order_release);
      if (metrics_.fsync_failures != nullptr) metrics_.fsync_failures->Add(1);
      return error_;
    }
    synced_lsn_.store(target, std::memory_order_release);
  }
  return Status::OK();
}

Status FramedLog::TruncateTo(uint64_t watermark_lsn, const SealSink& seal) {
  std::lock_guard<std::mutex> tg(truncate_mu_);

  // Phase 1 (flusher role, O(pending appends)): make every appended
  // frame file-resident and snapshot the frame-aligned prefix length.
  size_t snap_size = 0;
  {
    FlusherRole role(this);
    LSTORE_RETURN_IF_ERROR(Flush(/*fsync=*/false));
    struct ::stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IOError("cannot size log for truncation");
    }
    snap_size = static_cast<size_t>(st.st_size);
  }

  // Phase 2 (no role — appends and flushes proceed): scan the snapshot
  // prefix, locate the byte offset of the first frame that must
  // survive, and write the new head (truncation point + retained
  // bytes) to a temp file. Frames flushed after phase 1 are untouched:
  // they live in the old file beyond snap_size and are copied in
  // phase 3.
  std::string data;
  if (!SlurpFile(path_, &data)) {
    return Status::IOError("cannot read log for truncation: " + path_);
  }
  data.resize(std::min(data.size(), snap_size));
  ScanStats stats;
  size_t cut = 0;
  uint64_t base_lsn = 0;
  bool found_cut = false;
  uint64_t prefix_first_lsn = 0;  ///< first record LSN in the file
  ScanFrames(
      data, codec_,
      [&](std::string_view, uint64_t first_lsn, uint64_t count, size_t begin,
          size_t) {
        if (count == 0) return;
        if (prefix_first_lsn == 0) prefix_first_lsn = first_lsn;
        if (!found_cut && first_lsn + count - 1 > watermark_lsn) {
          // A batch frame straddling the watermark is kept whole; the
          // LSN base backs up to renumber its first record correctly.
          found_cut = true;
          cut = begin;
          base_lsn = first_lsn - 1;
        }
      },
      &stats);
  if (!found_cut) {
    cut = stats.bytes_consumed;
    base_lsn = stats.last_lsn;
  }

  // Archive the retired prefix before anything is dropped: the sink
  // must have it durable before the truncated log below is published,
  // so a crash anywhere in between loses nothing (the prefix exists in
  // the archive, the live log, or both).
  if (seal != nullptr && cut > 0 && prefix_first_lsn != 0 &&
      prefix_first_lsn <= base_lsn) {
    std::string sealed = TruncationPointFrame(prefix_first_lsn - 1);
    sealed.append(data.data(), cut);
    LSTORE_RETURN_IF_ERROR(seal(prefix_first_lsn, base_lsn, sealed));
  }

  std::string head = TruncationPointFrame(base_lsn);
  head.append(data, cut, std::string::npos);
  std::string tmp = path_ + ".tmp";
  // The temp file's descriptor becomes the log's once renamed, so it
  // is opened exactly like Open() opens the log.
  int out = ::open(tmp.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (out < 0) return Status::IOError("cannot open temp log: " + tmp);
  auto fail = [&](const char* what) {
    ::close(out);
    ::unlink(tmp.c_str());
    return Status::IOError(what);
  };
  if (WriteFully(out, head.data(), head.size()) != head.size()) {
    return fail("short write during log truncation");
  }

  // Phase 3 (flusher role, O(appends since phase 1)): drain the
  // buffer, copy the live suffix [snap_size, EOF) byte-for-byte, and
  // swap descriptors. Appends still proceed into the active buffer.
  FlusherRole role(this);
  Status flush = Flush(/*fsync=*/false);
  if (!flush.ok()) {
    ::close(out);
    ::unlink(tmp.c_str());
    return flush;
  }
  {
    int in = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (in < 0) return fail("cannot read log suffix for truncation");
    char chunk[1 << 16];
    off_t off = static_cast<off_t>(snap_size);
    ssize_t n;
    bool copy_ok = true;
    while ((n = ::pread(in, chunk, sizeof(chunk), off)) != 0) {
      if (n < 0) {
        if (errno == EINTR) continue;
        copy_ok = false;
        break;
      }
      if (WriteFully(out, chunk, static_cast<size_t>(n)) !=
          static_cast<size_t>(n)) {
        copy_ok = false;
        break;
      }
      off += n;
    }
    ::close(in);
    if (!copy_ok) return fail("short write during log truncation");
  }
  if (::fsync(out) != 0) return fail("cannot sync truncated log");
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    return fail("cannot publish truncated log");
  }
  // Make the rename itself durable before dropping the old handle.
  SyncDirOf(path_);
  ::close(fd_);
  fd_ = out;
  // The rewritten file was fsynced whole: everything written is durable.
  synced_lsn_.store(written_lsn_.load(std::memory_order_relaxed),
                    std::memory_order_release);
  return Status::OK();
}

}  // namespace lstore
