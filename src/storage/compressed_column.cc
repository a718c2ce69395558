#include "storage/compressed_column.h"

#include <unordered_set>
#include <utility>

namespace lstore {

std::unique_ptr<CompressedColumn> CompressedColumn::Build(
    std::vector<Value> values, bool try_compress) {
  auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
  col->size_ = values.size();
  if (!try_compress || values.empty()) {
    col->plain_ = std::move(values);
    return col;
  }

  const size_t plain_bytes = values.size() * sizeof(Value);

  // Count runs and (approximately) distinct values in one pass.
  size_t runs = 0;
  std::unordered_set<Value> distinct;
  bool too_many_distinct = false;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == 0 || values[i] != values[i - 1]) ++runs;
    if (!too_many_distinct) {
      distinct.insert(values[i]);
      // Dictionary only pays off when codes are clearly narrower.
      if (distinct.size() > values.size() / 4 + 1) too_many_distinct = true;
    }
  }

  const size_t rle_bytes = runs * 2 * sizeof(uint64_t);
  if (rle_bytes * 2 <= plain_bytes) {
    return BuildAs(std::move(values), Encoding::kRle);
  }
  if (!too_many_distinct) {
    DictionaryColumn dict(values);
    if (dict.byte_size() < plain_bytes / 2) {
      col->encoding_ = Encoding::kDictionary;
      col->dict_ = std::move(dict);
      return col;
    }
  }
  col->plain_ = std::move(values);
  return col;
}

std::unique_ptr<CompressedColumn> CompressedColumn::BuildAs(
    std::vector<Value> values, Encoding encoding) {
  auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
  col->size_ = values.size();
  col->encoding_ = encoding;
  switch (encoding) {
    case Encoding::kPlain: col->plain_ = std::move(values); break;
    case Encoding::kDictionary: col->dict_ = DictionaryColumn(values); break;
    case Encoding::kRle: col->rle_ = RleColumn(values); break;
  }
  return col;
}

size_t CompressedColumn::byte_size() const {
  switch (encoding_) {
    case Encoding::kPlain: return plain_.size() * sizeof(Value);
    case Encoding::kDictionary: return dict_.byte_size();
    case Encoding::kRle: return rle_.byte_size();
  }
  return 0;
}

}  // namespace lstore
