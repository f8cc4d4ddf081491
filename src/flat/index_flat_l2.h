// IndexFlatL2 — the FAISS-style exact brute-force baseline
// (paper Section V, competitor [18]).
//
// Exact L2 search via the blocked ‖x‖²+‖y‖²−2x·y formulation with
// precomputed row norms and SIMD dot products. As in the paper's FAISS
// setup, a single query runs serially (FAISS cannot parallelize inside one
// query) while batches are embarrassingly parallel across queries with
// mini-batches sized to the core count.

#ifndef SOFA_FLAT_INDEX_FLAT_L2_H_
#define SOFA_FLAT_INDEX_FLAT_L2_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "util/aligned.h"

namespace sofa {

class ThreadPool;

namespace flat {

/// Exact flat L2 index over a dataset (which must outlive the index).
class IndexFlatL2 {
 public:
  /// Precomputes the database row norms (the "index construction").
  IndexFlatL2(const Dataset* data, ThreadPool* pool);

  /// Exact k-NN of one query, ascending by distance; serial.
  std::vector<Neighbor> SearchKnn(const float* query, std::size_t k) const;

  /// Exact 1-NN of one query; serial.
  Neighbor Search1Nn(const float* query) const;

  /// Batched exact k-NN, parallel across queries; result[i] answers
  /// queries.row(i).
  std::vector<std::vector<Neighbor>> SearchBatch(const Dataset& queries,
                                                 std::size_t k) const;

  /// Seconds spent precomputing norms (Fig. 7's "index creation" for
  /// FAISS).
  double build_seconds() const { return build_seconds_; }

  const Dataset& data() const { return *data_; }

 private:
  const Dataset* data_;
  ThreadPool* pool_;
  AlignedVector<float> norms_sq_;
  double build_seconds_ = 0.0;
};

}  // namespace flat
}  // namespace sofa

#endif  // SOFA_FLAT_INDEX_FLAT_L2_H_
