// Tests for the compressed pruning tier (src/quant/rowq): the
// admissibility property the engine's exactness rests on (the deflated
// quantized bound never exceeds the float distance any compiled-in exact
// kernel reports — including denormal, huge-magnitude, constant and
// special-value rows, and dimensionalities that are not a multiple of
// the SIMD width), bit-identity of the scalar/AVX2/AVX512 kernels, the
// encode-time containment contract (uncontainable rows are flagged
// unprunable with zeroed codes), and end-to-end bit-identity of answers
// with the tier on vs off for the tree, the sharded service, and the
// flat baseline — with the rowq work counters visible in the profile.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/distance.h"
#include "flat/index_flat_l2.h"
#include "harness/oracle.h"
#include "index/tree_index.h"
#include "quant/rowq.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sofa {
namespace quant {
namespace {

using testing_data::Walk;
using testing_harness::BitIdentical;
using testing_harness::MakeSearchRequest;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

std::size_t RoundUpLanes(std::size_t n) {
  return (n + kRowqLanes - 1) / kRowqLanes * kRowqLanes;
}

// ------------------------------------------------------ kernel identity

// Random padded grid/codes/query with pad dimensions zeroed — the layout
// every kernel consumes.
struct KernelInput {
  AlignedVector<float> query;
  AlignedVector<float> mins;
  AlignedVector<float> deltas;
  AlignedVector<std::uint8_t> code;

  KernelInput(std::size_t length, Rng* rng) {
    const std::size_t padded = RoundUpLanes(length);
    query.assign(padded, 0.0f);
    mins.assign(padded, 0.0f);
    deltas.assign(padded, 0.0f);
    code.assign(padded, 0);
    for (std::size_t d = 0; d < length; ++d) {
      query[d] = static_cast<float>(rng->Gaussian(0.0, 2.0));
      mins[d] = static_cast<float>(rng->Gaussian(0.0, 1.0));
      // Include zero deltas (constant dimensions) now and then.
      deltas[d] = rng->Below(8) == 0
                      ? 0.0f
                      : static_cast<float>(rng->Uniform(0.0, 0.05));
      code[d] = static_cast<std::uint8_t>(rng->Below(256));
    }
  }
};

TEST(RowqKernelTest, IsaVariantsAreBitIdentical) {
  Rng rng(401);
  for (const std::size_t length : {1, 7, 16, 17, 33, 48, 100, 256}) {
    const std::size_t padded = RoundUpLanes(length);
    for (int trial = 0; trial < 200; ++trial) {
      const KernelInput in(length, &rng);
      const float s = scalar::RowqLowerBoundSquared(
          in.query.data(), in.mins.data(), in.deltas.data(), in.code.data(),
          padded);
      const float dispatched = RowqLowerBoundSquared(
          in.query.data(), in.mins.data(), in.deltas.data(), in.code.data(),
          padded);
      // Bit equality, not closeness: persisted bounds must not depend on
      // the serving machine's ISA.
      ASSERT_EQ(s, dispatched) << "length " << length;
#if defined(SOFA_HAVE_AVX2)
      const float v2 = avx2::RowqLowerBoundSquared(
          in.query.data(), in.mins.data(), in.deltas.data(), in.code.data(),
          padded);
      ASSERT_EQ(s, v2) << "length " << length;
#endif
#if defined(SOFA_COMPILE_AVX512)
      if (CpuSupportsAvx512()) {
        const float v5 = avx512::RowqLowerBoundSquared(
            in.query.data(), in.mins.data(), in.deltas.data(), in.code.data(),
            padded);
        ASSERT_EQ(s, v5) << "length " << length;
      }
#endif
    }
  }
}

// The early-abandoning kernel: with abandon = +inf it must return
// exactly the full-sum kernel's bits; with a finite abandon every ISA
// must return the same (partial or full) value, and a returned value at
// or below the abandon threshold must equal the full sum (the scan only
// stops once the partial exceeds it).
TEST(RowqKernelTest, EarlyAbandonAgreesAcrossIsasAndWithFullSum) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(977);
  for (const std::size_t length : {1, 16, 17, 48, 100, 256}) {
    const std::size_t padded = RoundUpLanes(length);
    for (int trial = 0; trial < 200; ++trial) {
      const KernelInput in(length, &rng);
      const float full = scalar::RowqLowerBoundSquared(
          in.query.data(), in.mins.data(), in.deltas.data(), in.code.data(),
          padded);
      ASSERT_EQ(scalar::RowqLowerBoundSquaredEarlyAbandon(
                    in.query.data(), in.mins.data(), in.deltas.data(),
                    in.code.data(), padded, kInf),
                full)
          << "length " << length;
      // Abandon thresholds straddling the sum: 0 forces the earliest
      // exit, full/2 lands mid-scan, 2*full never fires.
      for (const float abandon : {0.0f, full * 0.5f, full * 2.0f}) {
        const float s = scalar::RowqLowerBoundSquaredEarlyAbandon(
            in.query.data(), in.mins.data(), in.deltas.data(),
            in.code.data(), padded, abandon);
        if (s <= abandon) {
          ASSERT_EQ(s, full) << "length " << length;  // ran to completion
        }
        const float dispatched = RowqLowerBoundSquaredEarlyAbandon(
            in.query.data(), in.mins.data(), in.deltas.data(),
            in.code.data(), padded, abandon);
        ASSERT_EQ(s, dispatched) << "length " << length;
#if defined(SOFA_HAVE_AVX2)
        const float v2 = avx2::RowqLowerBoundSquaredEarlyAbandon(
            in.query.data(), in.mins.data(), in.deltas.data(),
            in.code.data(), padded, abandon);
        ASSERT_EQ(s, v2) << "length " << length;
#endif
#if defined(SOFA_COMPILE_AVX512)
        if (CpuSupportsAvx512()) {
          const float v5 = avx512::RowqLowerBoundSquaredEarlyAbandon(
              in.query.data(), in.mins.data(), in.deltas.data(),
              in.code.data(), padded, abandon);
          ASSERT_EQ(s, v5) << "length " << length;
        }
#endif
      }
    }
  }
}

// ------------------------------------------------------- admissibility

// Appends `count` rows drawn by `fill(row_index, dim)` to `data`.
template <typename Fill>
void AppendRows(Dataset* data, std::size_t count, std::size_t length,
                Fill fill) {
  std::vector<float> row(length);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t d = 0; d < length; ++d) {
      row[d] = fill(i, d);
    }
    data->Append(row.data());
  }
}

// An adversarial collection: Gaussian rows, denormal-scale rows, huge
// ±1e37 rows, per-row constants (so some columns have zero range),
// exact zeros, and FLT_MAX edges.
Dataset AdversarialRows(std::size_t length, std::uint64_t seed) {
  Dataset data(length);
  Rng rng(seed);
  AppendRows(&data, 40, length, [&](std::size_t, std::size_t) {
    return static_cast<float>(rng.Gaussian(0.0, 2.0));
  });
  AppendRows(&data, 10, length, [&](std::size_t, std::size_t) {
    return static_cast<float>(rng.Gaussian()) * 1e-41f;  // denormal scale
  });
  AppendRows(&data, 10, length, [&](std::size_t i, std::size_t d) {
    return ((i + d) % 2 == 0 ? 1.0f : -1.0f) * 1e37f;  // huge magnitudes
  });
  AppendRows(&data, 8, length, [&](std::size_t i, std::size_t) {
    return static_cast<float>(i) - 4.0f;  // constant rows, distinct values
  });
  AppendRows(&data, 4, length,
             [&](std::size_t, std::size_t) { return 0.0f; });
  AppendRows(&data, 2, length, [&](std::size_t i, std::size_t) {
    return i == 0 ? std::numeric_limits<float>::max()
                  : -std::numeric_limits<float>::max();
  });
  return data;
}

// The invariant the engine prunes on: for every prunable row, the
// deflated bound never exceeds the float distance ANY compiled-in exact
// kernel reports for (query, row).
void CheckAdmissible(const Dataset& data, const Dataset& queries) {
  const std::shared_ptr<const RowQuant> rowq = RowQuant::Build(data);
  ASSERT_NE(rowq, nullptr);
  ASSERT_EQ(rowq->rows(), data.size());
  const RowQuantizer& q = rowq->quantizer();
  const std::size_t n = data.length();
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const float* query = queries.row(qi);
    const RowQuantView view(rowq.get(), query);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!view.prunable(i)) {
        continue;  // row always takes the exact kernel; nothing to prove
      }
      const float lb = view.LowerBound(i);
      ASSERT_GE(lb, 0.0f);
      ASSERT_TRUE(std::isfinite(lb));
      const float exact = SquaredEuclidean(query, data.row(i), n);
      ASSERT_LE(lb, exact)
          << "query " << qi << " row " << i << " length " << n;
      // The early-abandoning path must stay admissible at every abandon
      // point: a partial sum deflates to a smaller bound, never a
      // larger one. Thresholds straddle the serving predicate's range.
      for (const float target : {0.0f, exact * 0.5f, exact}) {
        const float ea = view.LowerBoundEarlyAbandon(
            i, view.RawAbandonThreshold(target, 1.0f));
        ASSERT_GE(ea, 0.0f);
        ASSERT_LE(ea, exact)
            << "query " << qi << " row " << i << " length " << n
            << " target " << target;
      }
      const float exact_scalar =
          sofa::scalar::SquaredEuclidean(query, data.row(i), n);
      ASSERT_LE(lb, exact_scalar)
          << "query " << qi << " row " << i << " length " << n;
#if defined(SOFA_HAVE_AVX2)
      ASSERT_LE(lb, sofa::avx2::SquaredEuclidean(query, data.row(i), n));
#endif
#if defined(SOFA_COMPILE_AVX512)
      if (CpuSupportsAvx512()) {
        ASSERT_LE(lb, sofa::avx512::SquaredEuclidean(query, data.row(i), n));
      }
#endif
    }
  }
}

TEST(RowqAdmissibilityTest, BoundNeverExceedsExactAcrossAdversarialData) {
  for (const std::size_t length : {1, 7, 16, 17, 33, 100}) {
    const Dataset data = AdversarialRows(length, 500 + length);
    // Queries: the rows themselves (self-distance 0 forces the bound to
    // 0), plus fresh draws from the same adversarial distributions.
    Dataset queries(length);
    for (std::size_t i = 0; i < data.size(); i += 5) {
      queries.Append(data.row(i));
    }
    const Dataset extra = AdversarialRows(length, 900 + length);
    for (std::size_t i = 0; i < extra.size(); i += 7) {
      queries.Append(extra.row(i));
    }
    CheckAdmissible(data, queries);
  }
}

TEST(RowqAdmissibilityTest, ZNormalizedWalksAreFullyPrunable) {
  // The engine's actual serving distribution: z-normalized walks. Every
  // row must verify containment (no silent unprunable fallback eating
  // the tier's benefit) and every bound must be admissible.
  const Dataset data = Walk(300, 48, 61);
  const std::shared_ptr<const RowQuant> rowq = RowQuant::Build(data);
  for (std::size_t i = 0; i < rowq->rows(); ++i) {
    ASSERT_TRUE(rowq->prunable(i)) << "row " << i;
  }
  CheckAdmissible(data, Walk(20, 48, 62));
}

TEST(RowqEncodeTest, SpecialValueRowsAreFlaggedUnprunable) {
  const std::size_t length = 20;
  Dataset data(length);
  Rng rng(71);
  AppendRows(&data, 5, length, [&](std::size_t, std::size_t) {
    return static_cast<float>(rng.Gaussian());
  });
  AppendRows(&data, 1, length, [&](std::size_t, std::size_t d) {
    return d == 3 ? kNan : 1.0f;
  });
  AppendRows(&data, 1, length, [&](std::size_t, std::size_t d) {
    return d == 7 ? kInf : 0.5f;
  });
  AppendRows(&data, 1, length, [&](std::size_t, std::size_t d) {
    return d == 0 ? -kInf : -0.5f;
  });
  const std::shared_ptr<const RowQuant> rowq = RowQuant::Build(data);
  ASSERT_EQ(rowq->rows(), 8u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(rowq->prunable(i)) << "finite row " << i;
  }
  const std::size_t padded = rowq->quantizer().padded_length();
  for (std::size_t i = 5; i < 8; ++i) {
    EXPECT_FALSE(rowq->prunable(i)) << "special-value row " << i;
    for (std::size_t d = 0; d < padded; ++d) {
      EXPECT_EQ(rowq->code(i)[d], 0) << "row " << i << " dim " << d;
    }
  }
}

TEST(RowqEncodeTest, EmptyAndSingleRowCollectionsBuild) {
  const Dataset empty(16);
  const std::shared_ptr<const RowQuant> none = RowQuant::Build(empty);
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->rows(), 0u);

  Dataset one(16);
  std::vector<float> row(16, 2.5f);
  one.Append(row.data());
  const std::shared_ptr<const RowQuant> single = RowQuant::Build(one);
  ASSERT_EQ(single->rows(), 1u);
  ASSERT_TRUE(single->prunable(0));
  // Degenerate grid (min == max everywhere): self-distance bounds 0.
  const RowQuantView view(single.get(), row.data());
  EXPECT_EQ(view.LowerBound(0), 0.0f);
}

TEST(RowqAdmissibilityTest, AdjustedLowerBoundNeverPrunesOnBadSums) {
  const Dataset data = Walk(10, 16, 81);
  const std::shared_ptr<const RowQuant> rowq = RowQuant::Build(data);
  const RowQuantizer& q = rowq->quantizer();
  EXPECT_EQ(q.AdjustedLowerBound(kNan), 0.0f);
  EXPECT_EQ(q.AdjustedLowerBound(kInf), 0.0f);
  EXPECT_EQ(q.AdjustedLowerBound(std::numeric_limits<float>::max()), 0.0f);
  EXPECT_EQ(q.AdjustedLowerBound(0.0f), 0.0f);
  EXPECT_GE(q.AdjustedLowerBound(1.0f), 0.0f);
  EXPECT_LT(q.AdjustedLowerBound(1.0f), 1.0f);  // strictly deflated
}

// --------------------------------------------------- tier on/off: tree

TEST(RowqTierTest, TreeAnswersBitIdenticalOnVsOff) {
  ThreadPool pool(4);
  const Dataset data = Walk(3000, 64, 111);
  const auto scheme = testing_harness::TrainTestScheme(data, &pool);
  index::IndexConfig config;
  config.leaf_capacity = 100;
  index::TreeIndex plain(&data, scheme.get(), config, &pool);
  index::TreeIndex tiered(&data, scheme.get(), config, &pool);
  tiered.AttachRowQuant(RowQuant::Build(data));

  const Dataset queries = Walk(40, 64, 112);
  std::uint64_t total_checked = 0;
  std::uint64_t total_pruned = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    for (const std::size_t k : {1u, 10u}) {
      index::QueryProfile off_profile;
      index::QueryProfile on_profile;
      const std::vector<Neighbor> expected =
          plain.SearchKnn(queries.row(qi), k, &off_profile);
      const std::vector<Neighbor> actual =
          tiered.SearchKnn(queries.row(qi), k, &on_profile);
      ASSERT_TRUE(BitIdentical(actual, expected))
          << "query " << qi << " k " << k;
      EXPECT_EQ(off_profile.rowq_checked, 0u);
      EXPECT_EQ(off_profile.rowq_pruned, 0u);
      EXPECT_LE(on_profile.rowq_pruned, on_profile.rowq_checked);
      // The tier can only cut work the exact kernel would have done.
      EXPECT_LE(on_profile.series_ed_computed,
                off_profile.series_ed_computed);
      total_checked += on_profile.rowq_checked;
      total_pruned += on_profile.rowq_pruned;
    }
  }
  // Across the workload the tier actually engages and actually prunes —
  // a tier that never fires would pass bit-identity vacuously.
  EXPECT_GT(total_checked, 0u);
  EXPECT_GT(total_pruned, 0u);
}

// ------------------------------------------- tier on/off: sharded service

TEST(RowqTierTest, ShardedServiceAnswersBitIdenticalOnVsOff) {
  ThreadPool pool(4);
  const Dataset data = Walk(2400, 64, 121);
  const auto scheme = testing_harness::TrainTestScheme(data, &pool);
  const auto plain = testing_harness::BuildTestSharded(
      data, 3, scheme, &pool, /*enable_rowq=*/false);
  const auto tiered = testing_harness::BuildTestSharded(
      data, 3, scheme, &pool, /*enable_rowq=*/true);
  service::SearchService off_svc(service::WrapShardedIndex(plain), &pool);
  service::SearchService on_svc(service::WrapShardedIndex(tiered), &pool);

  const Dataset queries = Walk(30, 64, 122);
  std::uint64_t total_checked = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const service::SearchResponse off =
        off_svc.Search(MakeSearchRequest(queries, qi, 10, /*profile=*/true));
    const service::SearchResponse on =
        on_svc.Search(MakeSearchRequest(queries, qi, 10, /*profile=*/true));
    ASSERT_EQ(off.status, service::RequestStatus::kOk);
    ASSERT_EQ(on.status, service::RequestStatus::kOk);
    ASSERT_TRUE(BitIdentical(on.neighbors, off.neighbors)) << "query " << qi;
    EXPECT_EQ(off.profile.rowq_checked, 0u);
    total_checked += on.profile.rowq_checked;
  }
  EXPECT_GT(total_checked, 0u);
}

// --------------------------------------------------- tier on/off: flat

TEST(RowqTierTest, FlatAnswersBitIdenticalOnVsOff) {
  ThreadPool pool(4);
  // The flat baseline accepts unnormalized data, so feed it the
  // adversarial magnitudes too: the dot-trick slack must keep huge and
  // denormal rows from flipping any comparison.
  Dataset data = AdversarialRows(48, 131);
  const Dataset walks = Walk(400, 48, 132);
  for (std::size_t i = 0; i < walks.size(); ++i) {
    data.Append(walks.row(i));
  }
  flat::IndexFlatL2 plain(&data, &pool);
  flat::IndexFlatL2 tiered(&data, &pool);
  tiered.AttachRowQuant(RowQuant::Build(data));

  Dataset queries(48);
  for (std::size_t i = 0; i < data.size(); i += 9) {
    queries.Append(data.row(i));  // member queries: exact zero distances
  }
  const Dataset extra = Walk(15, 48, 133);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    queries.Append(extra.row(i));
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    for (const std::size_t k : {1u, 5u, 20u}) {
      const std::vector<Neighbor> expected =
          plain.SearchKnn(queries.row(qi), k);
      const std::vector<Neighbor> actual =
          tiered.SearchKnn(queries.row(qi), k);
      ASSERT_TRUE(BitIdentical(actual, expected))
          << "query " << qi << " k " << k;
    }
  }
  // Batched path shares the pruning code; spot-check it too.
  const std::vector<std::vector<Neighbor>> expected_batch =
      plain.SearchBatch(extra, 7);
  const std::vector<std::vector<Neighbor>> actual_batch =
      tiered.SearchBatch(extra, 7);
  ASSERT_EQ(actual_batch.size(), expected_batch.size());
  for (std::size_t qi = 0; qi < expected_batch.size(); ++qi) {
    ASSERT_TRUE(BitIdentical(actual_batch[qi], expected_batch[qi]));
  }
}

}  // namespace
}  // namespace quant
}  // namespace sofa
