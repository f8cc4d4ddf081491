// Index persistence: save a built TreeIndex (including its summarization
// scheme) to a binary file and reload it against the same dataset.
//
// The raw series data is *not* embedded — like the paper's in-memory
// setting, the index references an external collection; persist that with
// core/io (WriteRawF32/WriteFvecs) if needed. The loader validates the
// collection's shape and the file's structure and returns std::nullopt on
// any mismatch.
//
// Format (little-endian): magic "SOFAIDX1", scheme kind + payload
// (iSAX parameters, or the full SfaSpec with learned edges), index
// configuration, dataset shape, then the forest in preorder.

#ifndef SOFA_INDEX_SERIALIZATION_H_
#define SOFA_INDEX_SERIALIZATION_H_

#include <memory>
#include <optional>
#include <string>

#include "index/tree_index.h"

namespace sofa {
namespace index {

/// A deserialized index with the scheme it holds.
struct LoadedIndex {
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::unique_ptr<TreeIndex> tree;
};

/// Serializes `index` (tree + scheme + config). Supports SaxScheme- and
/// SfaScheme-based indexes; returns false on I/O failure or an
/// unrecognized scheme type.
bool SaveIndex(const TreeIndex& index, const std::string& path);

/// Loads an index previously saved with SaveIndex; `data` must be the
/// identical collection (shape-checked) and must outlive the result.
/// When the file's scheme serializes to the same bytes as `reuse`, the
/// tree is built on `reuse` and the result holds it instead of a decoded
/// copy — the trees of one generation then share one scheme object, and
/// a query projects once for all of them.
std::optional<LoadedIndex> LoadIndex(
    const std::string& path, const Dataset* data, ThreadPool* pool,
    std::shared_ptr<const quant::SummaryScheme> reuse = nullptr);

}  // namespace index
}  // namespace sofa

#endif  // SOFA_INDEX_SERIALIZATION_H_
