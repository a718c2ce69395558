// Frame writer/reader and the table checkpoint capture/restore pass.

#include "checkpoint/serde.h"

#include <unistd.h>

#include <cstring>
#include <thread>

#include "common/bitutil.h"
#include "core/historic.h"
#include "core/table.h"
#include "log/redo_log.h"
#include "storage/compression/varint.h"

namespace lstore {

// ---------------------------------------------------------------------------
// FrameWriter
// ---------------------------------------------------------------------------

FrameWriter::~FrameWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FrameWriter::Open(const std::string& path, uint32_t magic) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IOError("cannot create file: " + path);
  }
  checksum_ = kFnv1a64Seed;
  std::string header;
  PutVarint64(&header, magic);
  PutVarint64(&header, kCheckpointFormatVersion);
  return WriteFrame(FrameType::kFileHeader, header);
}

Status FrameWriter::WriteRaw(const char* data, size_t n) {
  checksum_ = Fnv1a64(data, n, checksum_);
  if (std::fwrite(data, 1, n, file_) != n) {
    return Status::IOError("short checkpoint write");
  }
  return Status::OK();
}

Status FrameWriter::WriteFrame(FrameType type, const std::string& payload) {
  if (file_ == nullptr) return Status::IOError("writer not open");
  std::string framed;
  PutVarint64(&framed, payload.size() + 1);
  framed.push_back(static_cast<char>(type));
  framed.append(payload);
  uint32_t crc = Fnv1a32(framed.data() + VarintLength(payload.size() + 1),
                         payload.size() + 1);
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return WriteRaw(framed.data(), framed.size());
}

Status FrameWriter::Finish() {
  if (file_ == nullptr) return Status::IOError("writer not open");
  bool ok = std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  std::fclose(file_);
  file_ = nullptr;
  if (!ok) return Status::IOError("cannot sync checkpoint file");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FrameReader
// ---------------------------------------------------------------------------

Status FrameReader::Open(const std::string& path, uint32_t expected_magic) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open file: " + path);
  }
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data_.append(chunk, n);
  }
  std::fclose(f);
  checksum_ = Fnv1a64(data_.data(), data_.size());

  FrameType type;
  std::string_view payload;
  if (!Next(&type, &payload) || type != FrameType::kFileHeader) {
    return Status::Corruption("missing file header: " + path);
  }
  size_t pos = 0;
  uint64_t magic = 0, version = 0;
  if (!GetU64(payload, &pos, &magic) || !GetU64(payload, &pos, &version) ||
      magic != expected_magic) {
    return Status::Corruption("bad magic: " + path);
  }
  if (version > kCheckpointFormatVersion) {
    return Status::Corruption("unsupported format version: " + path);
  }
  return Status::OK();
}

bool FrameReader::Next(FrameType* type, std::string_view* payload) {
  if (!status_.ok() || pos_ >= data_.size()) return false;
  size_t pos = pos_;
  uint64_t len;
  if (!GetVarint64(data_.data(), data_.size(), &pos, &len) || len == 0) {
    status_ = Status::Corruption("torn checkpoint frame");
    return false;
  }
  size_t remain = data_.size() - pos;
  if (remain < sizeof(uint32_t) || len > remain - sizeof(uint32_t)) {
    status_ = Status::Corruption("torn checkpoint frame");
    return false;
  }
  const char* frame = data_.data() + pos;
  uint32_t stored;
  std::memcpy(&stored, data_.data() + pos + len, sizeof(stored));
  if (Fnv1a32(frame, len) != stored) {
    status_ = Status::Corruption("checkpoint frame checksum mismatch");
    return false;
  }
  *type = static_cast<FrameType>(frame[0]);
  *payload = std::string_view(frame + 1, len - 1);
  pos_ = pos + len + sizeof(uint32_t);
  return true;
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

void PutString(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetString(std::string_view in, size_t* pos, std::string* s) {
  uint64_t len;
  if (!GetVarint64(in.data(), in.size(), pos, &len)) return false;
  if (len > in.size() - *pos) return false;  // overflow-safe bound
  s->assign(in.data() + *pos, len);
  *pos += len;
  return true;
}

bool GetU64(std::string_view in, size_t* pos, uint64_t* v) {
  return GetVarint64(in.data(), in.size(), pos, v);
}

// ---------------------------------------------------------------------------
// CheckpointIO — capture
// ---------------------------------------------------------------------------

namespace {

/// Resolve the raw Start Time of one tail record for the snapshot.
/// Returns a commit time, the aborted stamp, a still-active txn id
/// (outcome lies beyond the log watermark), or kNull for a record the
/// writer has not published yet. kNull is safe to omit: writers
/// publish the Start Time BEFORE appending to the redo log, so an
/// unpublished record's log append (if it ever happens) necessarily
/// has an LSN beyond the watermark taken before this capture, and the
/// retained log tail replays it.
Value ResolveStartForCapture(TransactionManager* tm,
                             std::atomic<Value>* sref) {
  Value raw = sref->load(std::memory_order_acquire);
  while (IsTxnId(raw)) {
    TransactionManager::StateView view = tm->GetState(raw);
    if (!view.found) {
      // Entry retired: the outcome is being stamped into the slot.
      Value reread = sref->load(std::memory_order_acquire);
      if (reread == raw) {
        std::this_thread::yield();
        continue;
      }
      raw = reread;
      continue;
    }
    switch (view.state) {
      case TxnState::kCommitted:
        return view.commit;
      case TxnState::kAborted:
        return kAbortedStamp;
      case TxnState::kPreCommit:
        // Its commit record may already precede the watermark; wait
        // for the (short) validation window instead of guessing.
        std::this_thread::yield();
        continue;
      case TxnState::kActive:
        // Keep the txn id: a later commit/abort record necessarily has
        // an LSN beyond the watermark and resolves it during replay.
        return raw;
    }
  }
  return raw;
}

}  // namespace

Status CheckpointIO::WriteTable(Table& t, const std::string& path,
                                uint64_t* file_checksum) {
  FrameWriter w;
  LSTORE_RETURN_IF_ERROR(w.Open(path, kCheckpointMagic));

  // Keep retired segments and tail pages alive for the whole capture.
  EpochGuard guard(t.epochs_);
  const uint32_t ncols = t.schema_.num_columns();
  const uint32_t nphys = ncols + kBaseMetaColumns;

  {
    std::string p;
    PutString(&p, t.name_);
    PutVarint64(&p, ncols);
    for (ColumnId c = 0; c < ncols; ++c) PutString(&p, t.schema_.name(c));
    PutVarint64(&p, t.config_.range_size);
    PutVarint64(&p, t.next_row_.load(std::memory_order_acquire));
    PutVarint64(&p, t.num_ranges());
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kTableHeader, p));
  }

  uint64_t nranges = t.num_ranges();
  uint64_t ranges_written = 0;
  for (uint64_t id = 0; id < nranges; ++id) {
    Table::Range* r = t.GetRange(id);
    if (r == nullptr) continue;
    // Stable merge lineage: base segments, TPS, the based prefix and
    // the historic boundary only move under this latch (merge,
    // insert-merge, and historic compression all take it).
    SpinGuard g(r->merge_latch);
    const uint32_t occupied = r->occupied.load(std::memory_order_acquire);
    const uint32_t based = r->based.load(std::memory_order_acquire);
    const uint32_t tps = r->merged_tps.load(std::memory_order_acquire);
    const uint32_t boundary =
        r->historic_boundary.load(std::memory_order_acquire);
    const uint32_t last = r->updates.LastSeq();

    {
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, occupied);
      PutVarint64(&p, based);
      PutVarint64(&p, tps);
      PutVarint64(&p, boundary);
      PutVarint64(&p, last);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kRangeState, p));
    }

    // Consolidated base segments (read-optimized columns + lineage).
    // A segment already written through to the table's durable store
    // is checkpointed by reference — no payload I/O, and a cold
    // (evicted) segment is never faulted in just to checkpoint it.
    // SyncSegmentStore() runs before the manifest is published, so
    // every referenced byte range is durable first.
    for (uint32_t pc = 0; pc < nphys; ++pc) {
      BaseSegment* seg = r->base[pc].load(std::memory_order_acquire);
      if (seg == nullptr) continue;
      const SegmentPage* page = seg->page.get();
      if (page != nullptr && page->evictable() && page->store()->durable()) {
        std::string p;
        PutVarint64(&p, id);
        PutVarint64(&p, pc);
        PutVarint64(&p, seg->tps);
        PutVarint64(&p, seg->num_slots);
        PutVarint64(&p, page->swap_offset());
        PutVarint64(&p, page->swap_length());
        PutVarint64(&p, page->swap_checksum());
        PutVarint64(&p, static_cast<uint64_t>(page->swap_format()));
        PutVarint64(&p, page->swap_value_width());
        LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kBaseSegmentRef, p));
        continue;
      }
      PageHandle h = seg->Pin();
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, pc);
      PutVarint64(&p, seg->tps);
      PutVarint64(&p, seg->num_slots);
      for (uint32_t i = 0; i < seg->num_slots; ++i) {
        PutVarint64(&p, h.Get(i));
      }
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kBaseSegment, p));
    }

    // Update-range tail records at or beyond the historic boundary
    // (older versions live in the historic store, serialized below).
    {
      std::string body;
      uint64_t count = 0;
      for (uint32_t seq = boundary > 0 ? boundary : 1; seq <= last; ++seq) {
        Value start =
            ResolveStartForCapture(t.txn_manager_, r->updates.StartTimeSlot(seq));
        if (start == kNull) continue;  // reserved, never published
        Value enc = r->updates.Read(seq, kTailSchemaEncoding);
        PutVarint64(&body, seq);
        PutVarint64(&body, start);
        PutVarint64(&body, r->updates.Read(seq, kTailIndirection));
        PutVarint64(&body, r->updates.Read(seq, kTailBaseRid));
        PutVarint64(&body, enc);
        for (BitIter it(SchemaColumns(enc)); it; ++it) {
          PutVarint64(&body, r->updates.Read(
                                 seq, kTailMetaColumns +
                                          static_cast<uint32_t>(*it)));
        }
        ++count;
      }
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, count);
      p.append(body);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kUpdateRecords, p));
    }

    // Table-level tail pages of the not-yet-based suffix (Section 3.2);
    // the based prefix lives in the base segments above.
    {
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, based);
      PutVarint64(&p, occupied > based ? occupied - based : 0);
      for (uint32_t slot = based; slot < occupied; ++slot) {
        Value start = ResolveStartForCapture(
            t.txn_manager_, r->inserts.StartTimeSlot(slot + 1));
        PutVarint64(&p, start);
        for (ColumnId c = 0; c < ncols; ++c) {
          PutVarint64(&p, r->inserts.Read(slot + 1, kTailMetaColumns + c));
        }
      }
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kInsertRecords, p));
    }

    // Historic store (Section 4.3): versions below the boundary.
    HistoricStore* hist = r->historic.load(std::memory_order_acquire);
    if (hist != nullptr) {
      std::string p;
      PutVarint64(&p, id);
      hist->EncodeTo(&p);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kHistoric, p));
    }
    ++ranges_written;
  }

  {
    std::string p;
    PutVarint64(&p, ranges_written);
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kTableFooter, p));
  }
  LSTORE_RETURN_IF_ERROR(w.Finish());
  if (file_checksum != nullptr) *file_checksum = w.file_checksum();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointIO — restore
// ---------------------------------------------------------------------------

Status CheckpointIO::LoadTable(Table* t, const std::string& path,
                               uint64_t expected_checksum) {
  FrameReader reader;
  LSTORE_RETURN_IF_ERROR(reader.Open(path, kCheckpointMagic));
  if (expected_checksum != 0 && reader.file_checksum() != expected_checksum) {
    return Status::Corruption("checkpoint file checksum mismatch: " + path);
  }

  const uint32_t ncols = t->schema_.num_columns();
  const uint32_t nphys = ncols + kBaseMetaColumns;
  bool header_seen = false, footer_seen = false;
  uint64_t ranges_seen = 0;

  FrameType type;
  std::string_view p;
  while (reader.Next(&type, &p)) {
    size_t pos = 0;
    switch (type) {
      case FrameType::kTableHeader: {
        std::string name;
        uint64_t file_ncols, range_size, next_row, nranges;
        if (!GetString(p, &pos, &name) || !GetU64(p, &pos, &file_ncols)) {
          return Status::Corruption("bad table header");
        }
        for (uint64_t c = 0; c < file_ncols; ++c) {
          std::string col;
          if (!GetString(p, &pos, &col)) {
            return Status::Corruption("bad table header");
          }
        }
        if (!GetU64(p, &pos, &range_size) || !GetU64(p, &pos, &next_row) ||
            !GetU64(p, &pos, &nranges)) {
          return Status::Corruption("bad table header");
        }
        if (file_ncols != ncols) {
          return Status::Corruption("checkpoint schema arity mismatch");
        }
        if (range_size != t->config_.range_size) {
          return Status::Corruption("checkpoint range_size mismatch");
        }
        t->next_row_.store(next_row, std::memory_order_release);
        header_seen = true;
        break;
      }
      case FrameType::kRangeState: {
        uint64_t id, occupied, based, tps, boundary, last;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &occupied) ||
            !GetU64(p, &pos, &based) || !GetU64(p, &pos, &tps) ||
            !GetU64(p, &pos, &boundary) || !GetU64(p, &pos, &last)) {
          return Status::Corruption("bad range state");
        }
        Table::Range* r = t->EnsureRange(id);
        r->occupied.store(static_cast<uint32_t>(occupied),
                          std::memory_order_release);
        r->based.store(static_cast<uint32_t>(based),
                       std::memory_order_release);
        r->merged_tps.store(static_cast<uint32_t>(tps),
                            std::memory_order_release);
        r->historic_boundary.store(static_cast<uint32_t>(boundary),
                                   std::memory_order_release);
        r->updates.AdvanceSeq(static_cast<uint32_t>(last));
        ++ranges_seen;
        break;
      }
      case FrameType::kBaseSegment: {
        uint64_t id, pc, tps, num_slots;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &pc) ||
            !GetU64(p, &pos, &tps) || !GetU64(p, &pos, &num_slots)) {
          return Status::Corruption("bad base segment");
        }
        if (pc >= nphys) return Status::Corruption("segment column overflow");
        std::vector<Value> vals(num_slots);
        for (uint64_t i = 0; i < num_slots; ++i) {
          if (!GetU64(p, &pos, &vals[i])) {
            return Status::Corruption("bad base segment values");
          }
        }
        auto* seg = new BaseSegment();
        seg->tps = static_cast<uint32_t>(tps);
        seg->num_slots = static_cast<uint32_t>(num_slots);
        seg->page = t->MakeSegmentPage(std::move(vals));
        Table::Range* r = t->EnsureRange(id);
        BaseSegment* old = r->base[pc].exchange(seg, std::memory_order_acq_rel);
        delete old;
        break;
      }
      case FrameType::kBaseSegmentRef: {
        // Lazy restore: map the segment onto its durable store bytes
        // without reading them — recovery cost for based data becomes
        // O(hot set), not O(table). Bounds are validated eagerly so a
        // truncated store fails recovery with a clean error instead of
        // a demand-load fault later.
        uint64_t id, pc, tps, num_slots, offset, length, crc;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &pc) ||
            !GetU64(p, &pos, &tps) || !GetU64(p, &pos, &num_slots) ||
            !GetU64(p, &pos, &offset) || !GetU64(p, &pos, &length) ||
            !GetU64(p, &pos, &crc)) {
          return Status::Corruption("bad base segment ref");
        }
        // Payload format + value width (absent in pre-fixed-width
        // checkpoints = varint). Only a known format with a width that
        // fits it may reach the decoders.
        uint64_t format = 0, width = 0;
        if (pos < p.size() &&
            (!GetU64(p, &pos, &format) || !GetU64(p, &pos, &width) ||
             !ValidSwapLayout(format, width))) {
          return Status::Corruption("bad base segment ref format");
        }
        if (pc >= nphys) return Status::Corruption("segment column overflow");
        if (t->segment_store_ == nullptr ||
            !t->segment_store_->Contains(offset, length)) {
          return Status::Corruption(
              "checkpoint references missing segment store bytes: " + path);
        }
        if (t->config_.verify_segment_refs) {
          // Opt-in eager integrity check: read the range back and
          // compare checksums so store corruption surfaces as a clean
          // recovery error (the segment still restores cold below).
          std::string bytes;
          Status vs = t->segment_store_->ReadAt(offset, length, &bytes);
          if (!vs.ok() ||
              Fnv1a32(bytes.data(), bytes.size()) !=
                  static_cast<uint32_t>(crc)) {
            return Status::Corruption(
                "checkpoint segment reference failed verification: " + path);
          }
        }
        auto* seg = new BaseSegment();
        seg->tps = static_cast<uint32_t>(tps);
        seg->num_slots = static_cast<uint32_t>(num_slots);
        seg->page = t->MakeColdSegmentPage(static_cast<uint32_t>(num_slots),
                                           offset, length,
                                           static_cast<uint32_t>(crc),
                                           static_cast<SwapFormat>(format),
                                           static_cast<uint32_t>(width));
        Table::Range* r = t->EnsureRange(id);
        BaseSegment* old = r->base[pc].exchange(seg, std::memory_order_acq_rel);
        delete old;
        break;
      }
      case FrameType::kUpdateRecords: {
        uint64_t id, count;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &count)) {
          return Status::Corruption("bad update records");
        }
        Table::Range* r = t->EnsureRange(id);
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t seq, start, backptr, base_rid, enc;
          if (!GetU64(p, &pos, &seq) || !GetU64(p, &pos, &start) ||
              !GetU64(p, &pos, &backptr) || !GetU64(p, &pos, &base_rid) ||
              !GetU64(p, &pos, &enc)) {
            return Status::Corruption("bad update record");
          }
          uint32_t s = static_cast<uint32_t>(seq);
          r->updates.AdvanceSeq(s);
          r->updates.Write(s, kTailIndirection, backptr);
          r->updates.Write(s, kTailBaseRid, base_rid);
          r->updates.Write(s, kTailSchemaEncoding, enc);
          for (BitIter it(SchemaColumns(enc)); it; ++it) {
            uint64_t v;
            if (!GetU64(p, &pos, &v)) {
              return Status::Corruption("bad update record values");
            }
            r->updates.Write(s, kTailMetaColumns + static_cast<uint32_t>(*it),
                             v);
          }
          r->updates.StartTimeSlot(s)->store(start, std::memory_order_release);
        }
        break;
      }
      case FrameType::kInsertRecords: {
        uint64_t id, first_slot, count;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &first_slot) ||
            !GetU64(p, &pos, &count)) {
          return Status::Corruption("bad insert records");
        }
        Table::Range* r = t->EnsureRange(id);
        for (uint64_t i = 0; i < count; ++i) {
          uint32_t slot = static_cast<uint32_t>(first_slot + i);
          uint32_t seq = slot + 1;
          uint64_t start;
          if (!GetU64(p, &pos, &start)) {
            return Status::Corruption("bad insert record");
          }
          r->inserts.AdvanceSeq(seq);
          for (ColumnId c = 0; c < ncols; ++c) {
            uint64_t v;
            if (!GetU64(p, &pos, &v)) {
              return Status::Corruption("bad insert record values");
            }
            r->inserts.Write(seq, kTailMetaColumns + c, v);
          }
          r->inserts.Write(seq, kTailIndirection, 0);
          r->inserts.Write(seq, kTailSchemaEncoding, 0);
          r->inserts.Write(seq, kTailBaseRid, slot);
          r->inserts.StartTimeSlot(seq)->store(start,
                                               std::memory_order_release);
        }
        break;
      }
      case FrameType::kHistoric: {
        uint64_t id;
        if (!GetU64(p, &pos, &id)) return Status::Corruption("bad historic");
        HistoricStore* hist =
            HistoricStore::DecodeFrom(p.data() + pos, p.size() - pos);
        if (hist == nullptr) {
          return Status::Corruption("bad historic store encoding");
        }
        Table::Range* r = t->EnsureRange(id);
        HistoricStore* old =
            r->historic.exchange(hist, std::memory_order_acq_rel);
        delete old;
        break;
      }
      case FrameType::kTableFooter: {
        uint64_t count;
        if (!GetU64(p, &pos, &count)) return Status::Corruption("bad footer");
        if (count != ranges_seen) {
          return Status::Corruption("checkpoint truncated: range count");
        }
        footer_seen = true;
        break;
      }
      default:
        break;  // forward compatibility: ignore unknown frames
    }
  }
  LSTORE_RETURN_IF_ERROR(reader.status());
  if (!header_seen || !footer_seen) {
    return Status::Corruption("checkpoint missing header or footer");
  }
  return Status::OK();
}

}  // namespace lstore
