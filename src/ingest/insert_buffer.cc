#include "ingest/insert_buffer.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/distance.h"
#include "util/check.h"

namespace sofa {
namespace ingest {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

InsertBuffer::InsertBuffer(std::size_t length, std::size_t chunk_capacity,
                           std::shared_ptr<const quant::RowQuantizer> quantizer)
    : length_(length),
      chunk_capacity_(chunk_capacity),
      quantizer_(std::move(quantizer)) {
  SOFA_CHECK(length_ > 0);
  SOFA_CHECK(chunk_capacity_ > 0);
  SOFA_CHECK(quantizer_ == nullptr || quantizer_->length() == length_);
}

std::size_t InsertBuffer::Append(const float* row, std::uint32_t global_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t slot = count_ - base_;
  if (slot == chunks_.size() * chunk_capacity_) {
    chunks_.push_back(std::make_shared<Chunk>(
        length_, chunk_capacity_,
        quantizer_ == nullptr ? 0 : quantizer_->padded_length()));
  }
  Chunk& chunk = *chunks_[slot / chunk_capacity_];
  const std::size_t at = slot % chunk_capacity_;
  std::memcpy(chunk.rows.mutable_row(at), row, length_ * sizeof(float));
  chunk.ids[at] = global_id;
  if (quantizer_ != nullptr) {
    chunk.prunable[at] =
        quantizer_->Encode(
            row, chunk.codes.data() + at * quantizer_->padded_length())
            ? 1
            : 0;
  }
  return ++count_;  // row fully written before the count publishes it
}

std::size_t InsertBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::size_t InsertBuffer::first_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return base_;
}

InsertBuffer::View InsertBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  View view;
  view.chunks.assign(chunks_.begin(), chunks_.end());
  view.base = base_;
  view.count = count_;
  return view;
}

void InsertBuffer::Scan(const float* query, std::size_t begin,
                        const std::unordered_set<std::uint32_t>* exclude,
                        index::ResultSet* results, ScanStats* stats) const {
  SOFA_CHECK(results != nullptr && stats != nullptr);
  const View view = Snapshot();
  SOFA_CHECK(begin >= view.base)
      << "scan from " << begin << " below first retained row " << view.base;
  if (exclude != nullptr && exclude->empty()) {
    exclude = nullptr;
  }
  if (begin >= view.count) {
    return;
  }
  // The rowq tier shares one padded query across the scan.
  AlignedVector<float> padded_query;
  if (quantizer_ != nullptr) {
    padded_query.resize(quantizer_->padded_length());
    quantizer_->PadQuery(query, padded_query.data());
  }
  // Flat scan with the tree engine's early-abandoning kernel against the
  // result set's bound, which sits just above its k-th distance: a row
  // tied with the k-th still reaches the set, where (distance, id) order
  // decides. A completed (non-abandoned) sum is the exact distance,
  // bit-identical to what the tree reports for the same row. Tombstoned
  // rows are masked before any distance work: the scan behaves as if
  // they were never appended. With a quantizer, rows whose quantized
  // lower bound already meets the bound are cut without touching float
  // data — the deflated bound never exceeds the exact kernel's float, so
  // the set's content is bit-identical to the unquantized scan.
  for (std::size_t r = begin; r < view.count; ++r) {
    const std::size_t slot = r - view.base;
    const Chunk& chunk = *view.chunks[slot / chunk_capacity_];
    const std::size_t at = slot % chunk_capacity_;
    if (exclude != nullptr && exclude->count(chunk.ids[at]) != 0) {
      ++stats->masked;
      continue;
    }
    ++stats->scanned;
    const float bound = results->bound_sq();
    if (quantizer_ != nullptr && bound < kInf && chunk.prunable[at] != 0) {
      ++stats->rowq_checked;
      // The kernel may stop early once its partial sum crosses the raw
      // threshold; the adjusted bound of a partial sum is still
      // admissible and the lb >= bound predicate below decides as
      // before, so the abandon point affects cost only.
      const float lb =
          quantizer_->AdjustedLowerBound(quant::RowqLowerBoundSquaredEarlyAbandon(
              padded_query.data(), quantizer_->mins(), quantizer_->deltas(),
              chunk.codes.data() + at * quantizer_->padded_length(),
              quantizer_->padded_length(),
              quantizer_->RawAbandonThreshold(bound, 1.0f)));
      if (lb >= bound) {
        ++stats->rowq_pruned;
        continue;
      }
    }
    const float d = SquaredEuclideanEarlyAbandon(query, chunk.rows.row(at),
                                                 length_, bound);
    ++stats->ed_computed;
    results->Offer(chunk.ids[at], d);
  }
}

void InsertBuffer::CopyRange(std::size_t begin, std::size_t end, Dataset* rows,
                             std::size_t at, std::vector<std::uint32_t>* ids,
                             const std::unordered_set<std::uint32_t>* exclude,
                             std::vector<std::uint32_t>* excluded) const {
  SOFA_CHECK(rows != nullptr && ids != nullptr);
  SOFA_CHECK_EQ(rows->length(), length_);
  const View view = Snapshot();
  SOFA_CHECK(begin >= view.base && end <= view.count && begin <= end);
  SOFA_CHECK(at + (end - begin) <= rows->size());
  for (std::size_t r = begin; r < end; ++r) {
    const std::size_t slot = r - view.base;
    const Chunk& chunk = *view.chunks[slot / chunk_capacity_];
    const std::size_t in_chunk = slot % chunk_capacity_;
    if (exclude != nullptr && exclude->count(chunk.ids[in_chunk]) != 0) {
      if (excluded != nullptr) {
        excluded->push_back(chunk.ids[in_chunk]);
      }
      continue;
    }
    std::memcpy(rows->mutable_row(at++), chunk.rows.row(in_chunk),
                length_ * sizeof(float));
    ids->push_back(chunk.ids[in_chunk]);
  }
}

void InsertBuffer::TrimBelow(std::size_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t drop = 0;
  while (base_ + (drop + 1) * chunk_capacity_ <= offset &&
         drop < chunks_.size()) {
    ++drop;
  }
  if (drop > 0) {
    chunks_.erase(chunks_.begin(),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop * chunk_capacity_;
  }
}

}  // namespace ingest
}  // namespace sofa
