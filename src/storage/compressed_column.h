// Read-optimized, immutable column segment.
//
// The merge process (Section 4.1.1, Step 3) writes consolidated
// values into new read-only pages and "any compression algorithm can
// be applied on the consolidated pages (on column basis)". This class
// owns one column of one update range in its read-optimized form and
// picks the cheapest encoding (plain / dictionary / RLE) per segment.

#ifndef LSTORE_STORAGE_COMPRESSED_COLUMN_H_
#define LSTORE_STORAGE_COMPRESSED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "storage/compression/dictionary.h"
#include "storage/compression/rle.h"

namespace lstore {

class CompressedColumn {
 public:
  enum class Encoding { kPlain, kDictionary, kRle };

  /// Build the read-optimized form of `values`. When `try_compress` is
  /// false (or no codec wins), the plain layout is kept.
  static std::unique_ptr<CompressedColumn> Build(std::vector<Value> values,
                                                 bool try_compress);

  /// Build `values` in a given encoding, skipping the choice: a
  /// demand load rebuilds the encoding its page's first Build chose
  /// (Build is deterministic, so the result is identical).
  static std::unique_ptr<CompressedColumn> BuildAs(std::vector<Value> values,
                                                   Encoding encoding);

  Value Get(size_t i) const {
    switch (encoding_) {
      case Encoding::kPlain: return plain_[i];
      case Encoding::kDictionary: return dict_.Get(i);
      case Encoding::kRle: return rle_.Get(i);
    }
    return kNull;
  }

  /// Monotone sequential reader: positions passed to At() must be
  /// non-decreasing. Scans (Query) decode runs incrementally — an RLE
  /// segment costs O(1) amortized per slot instead of O(log #runs) —
  /// which is where predicate/projection pushdown into the segment
  /// pays off.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const CompressedColumn* col) : col_(col) {}

    Value At(size_t i) {
      switch (col_->encoding_) {
        case Encoding::kPlain:
          return col_->plain_[i];
        case Encoding::kDictionary:
          return col_->dict_.Get(i);
        case Encoding::kRle: {
          const RleColumn& r = col_->rle_;
          while (run_ + 1 < r.run_count() && i >= r.run_start(run_ + 1)) {
            ++run_;
          }
          return r.run_value(run_);
        }
      }
      return kNull;
    }

   private:
    const CompressedColumn* col_ = nullptr;
    size_t run_ = 0;
  };

  Cursor cursor() const { return Cursor(this); }

  size_t size() const { return size_; }
  Encoding encoding() const { return encoding_; }
  size_t byte_size() const;

 private:
  CompressedColumn() = default;

  Encoding encoding_ = Encoding::kPlain;
  size_t size_ = 0;
  std::vector<Value> plain_;
  DictionaryColumn dict_;
  RleColumn rle_;
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSED_COLUMN_H_
