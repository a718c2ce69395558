// Binary serialization layer of the durability subsystem.
//
// Checkpoint files, the manifest, and the catalog all share one frame
// format, mirroring the redo log (Section 5.1.3):
//
//   [payload_len varint][type byte + payload][fnv1a32 over payload]
//
// so a torn or bit-flipped frame is detected exactly like a torn log
// record. In addition the writer folds every byte it emits into a
// running fnv1a64 whole-file checksum that the checkpoint manifest
// stores next to the file name — a flipped byte anywhere in a
// checkpointed page fails recovery with a clean Corruption error
// instead of resurrecting wrong data.
//
// CheckpointIO understands the Table internals (it is a friend): it
// captures each update range at a stable merge lineage (under the
// range's merge latch, pinned by an epoch guard) and restores the
// captured state into a freshly constructed table.

#ifndef LSTORE_CHECKPOINT_SERDE_H_
#define LSTORE_CHECKPOINT_SERDE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace lstore {

class Table;

/// Frame types of a checkpoint / manifest / catalog file.
enum class FrameType : uint8_t {
  kFileHeader = 1,     ///< magic + format version
  kTableHeader = 2,    ///< table name, schema, shape
  kRangeState = 3,     ///< per-range counters and lineage watermarks
  kBaseSegment = 4,    ///< one consolidated column of one range
  kUpdateRecords = 5,  ///< tail records of one range's update pages
  kInsertRecords = 6,  ///< table-level tail pages beyond the based prefix
  kHistoric = 7,       ///< compressed historic store of one range
  kTableFooter = 8,    ///< range count (completeness check)
  kManifestEntry = 9,  ///< one table's checkpoint reference
  kCatalogEntry = 10,  ///< one table's schema + config
  kManifestHeader = 11,
  kCatalogHeader = 12,
  /// One consolidated column stored by reference into the table's
  /// segment store ({offset, length, checksum} instead of inline
  /// values): written when the buffer pool already wrote the segment
  /// through, so the checkpoint is pre-paid and recovery maps the
  /// segment lazily instead of loading it.
  kBaseSegmentRef = 13,
};

/// Magics carried in the kFileHeader frame.
inline constexpr uint32_t kCheckpointMagic = 0x4b43534c;  // "LSCK"
inline constexpr uint32_t kManifestMagic = 0x464d534c;    // "LSMF"
inline constexpr uint32_t kCatalogMagic = 0x4754534c;     // "LSTG"
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// Frame-oriented writer with a running whole-file checksum. Finish()
/// fsyncs; callers that need atomic replacement write to a temp path
/// and rename after Finish() succeeds.
class FrameWriter {
 public:
  ~FrameWriter();
  Status Open(const std::string& path, uint32_t magic);
  Status WriteFrame(FrameType type, const std::string& payload);
  Status Finish();
  uint64_t file_checksum() const { return checksum_; }

 private:
  Status WriteRaw(const char* data, size_t n);
  std::FILE* file_ = nullptr;
  uint64_t checksum_;
};

/// Streams a frame file, verifying per-frame checksums. Open reads the
/// file once to compute the whole-file checksum (available right
/// after it); Next then reads frame by frame, so a reader holds one
/// frame in memory, never the whole file.
class FrameReader {
 public:
  FrameReader() = default;
  ~FrameReader();
  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  Status Open(const std::string& path, uint32_t expected_magic);
  /// Next frame; false at clean end-of-file. A malformed frame turns
  /// status() into Corruption and stops iteration. `payload` stays
  /// valid until the next call.
  bool Next(FrameType* type, std::string_view* payload);
  Status status() const { return status_; }
  uint64_t file_checksum() const { return checksum_; }

 private:
  /// Buffer at least `n` unread bytes; false when the file ends first.
  bool Fill(size_t n);

  int fd_ = -1;
  std::string buf_;  ///< file bytes read ahead; [pos_, size) unread
  size_t pos_ = 0;
  uint64_t left_ = 0;  ///< file bytes from buf_[pos_] to the end
  uint64_t checksum_ = 0;
  Status status_;
};

// --- payload primitives ----------------------------------------------------

void PutString(std::string* out, std::string_view s);
bool GetString(std::string_view in, size_t* pos, std::string* s);
bool GetU64(std::string_view in, size_t* pos, uint64_t* v);

// --- table checkpoint I/O --------------------------------------------------

class CheckpointIO {
 public:
  /// Serialize the table's full durable state to `path`. Captures each
  /// range under its merge latch (stable lineage: base segments, TPS,
  /// and historic boundary move only under that latch) while holding
  /// an epoch pin so retired segments stay alive. `file_checksum`
  /// receives the fnv1a64 of the written file for the manifest.
  static Status WriteTable(Table& table, const std::string& path,
                           uint64_t* file_checksum);

  /// Restore `path` into a freshly constructed, empty table. Indexes
  /// and the Indirection column are NOT restored here — recovery
  /// rebuilds them from Base RID backpointers (recovery option 2).
  /// A nonzero `expected_checksum` (from the manifest) is compared
  /// against the file's fnv1a64; mismatch fails with Corruption.
  static Status LoadTable(Table* table, const std::string& path,
                          uint64_t expected_checksum = 0);
};

}  // namespace lstore

#endif  // LSTORE_CHECKPOINT_SERDE_H_
