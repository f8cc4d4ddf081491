// Tests for the extension features: dataset file I/O (fvecs/bvecs/raw),
// index serialization, query profiling, ε-approximate search, pruning
// power, and the AVX-512 kernel dispatch.

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/io.h"
#include "datagen/datasets.h"
#include "index/serialization.h"
#include "index/tree_index.h"
#include "quant/binning.h"
#include "quant/lbd.h"
#include "sax/sax_scheme.h"
#include "sfa/mcb.h"
#include "sfa/tlb.h"
#include "test_data.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sofa {
namespace {

using testing_data::BruteForceKnn;
using testing_data::Noise;
using testing_data::SameDistances;
using testing_data::Walk;

// Unique temp path per test.
std::string TempPath(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / ("sofa_test_" + tag + "_" +
                 std::to_string(::getpid()) + ".bin"))
      .string();
}

class TempFile {
 public:
  explicit TempFile(const std::string& tag) : path_(TempPath(tag)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- io

TEST(IoTest, FvecsRoundTrip) {
  const Dataset original = Noise(37, 96, 1);
  TempFile file("fvecs");
  ASSERT_TRUE(io::WriteFvecs(original, file.path()));
  const auto loaded = io::ReadFvecs(file.path());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->length(), original.length());
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t t = 0; t < original.length(); ++t) {
      ASSERT_EQ(loaded->row(i)[t], original.row(i)[t]);
    }
  }
}

TEST(IoTest, FvecsMaxCountTruncates) {
  const Dataset original = Noise(20, 64, 2);
  TempFile file("fvecs_max");
  ASSERT_TRUE(io::WriteFvecs(original, file.path()));
  const auto loaded = io::ReadFvecs(file.path(), 5);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 5u);
}

TEST(IoTest, FvecsRejectsTruncatedFile) {
  const Dataset original = Noise(3, 64, 3);
  TempFile file("fvecs_trunc");
  ASSERT_TRUE(io::WriteFvecs(original, file.path()));
  // Chop off the last 8 bytes.
  std::filesystem::resize_file(
      file.path(), std::filesystem::file_size(file.path()) - 8);
  EXPECT_FALSE(io::ReadFvecs(file.path()).has_value());
}

TEST(IoTest, FvecsRejectsMissingFile) {
  EXPECT_FALSE(io::ReadFvecs("/nonexistent/sofa.fvecs").has_value());
}

TEST(IoTest, BvecsRoundTripQuantizesToBytes) {
  Dataset original(8);
  const float row[] = {0.0f, 1.4f, 1.6f, 255.0f, 300.0f, -5.0f, 42.0f, 7.5f};
  original.Append(row);
  TempFile file("bvecs");
  ASSERT_TRUE(io::WriteBvecs(original, file.path()));
  const auto loaded = io::ReadBvecs(file.path());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->row(0)[0], 0.0f);
  EXPECT_EQ(loaded->row(0)[1], 1.0f);
  EXPECT_EQ(loaded->row(0)[2], 2.0f);
  EXPECT_EQ(loaded->row(0)[3], 255.0f);
  EXPECT_EQ(loaded->row(0)[4], 255.0f);  // clamped
  EXPECT_EQ(loaded->row(0)[5], 0.0f);    // clamped
  EXPECT_EQ(loaded->row(0)[6], 42.0f);
  EXPECT_EQ(loaded->row(0)[7], 8.0f);    // rounded
}

TEST(IoTest, RawF32RoundTrip) {
  const Dataset original = Walk(11, 128, 4);
  TempFile file("raw");
  ASSERT_TRUE(io::WriteRawF32(original, file.path()));
  const auto loaded = io::ReadRawF32(file.path(), 128);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t t = 0; t < original.length(); ++t) {
      ASSERT_EQ(loaded->row(i)[t], original.row(i)[t]);
    }
  }
}

TEST(IoTest, RawF32RejectsMisalignedSize) {
  const Dataset original = Noise(4, 100, 5);
  TempFile file("raw_misaligned");
  ASSERT_TRUE(io::WriteRawF32(original, file.path()));
  // Length that does not divide the file payload.
  EXPECT_FALSE(io::ReadRawF32(file.path(), 96).has_value());
}

TEST(IoTest, ReadDataFileDispatchesOnExtension) {
  const Dataset original = Walk(5, 32, 6);
  const std::string stem = TempPath("dispatch");
  struct Cleanup {
    std::string stem;
    ~Cleanup() {
      for (const char* ext : {".fvecs", ".bvecs", ".f32"}) {
        std::remove((stem + ext).c_str());
      }
    }
  } cleanup{stem};
  ASSERT_TRUE(io::WriteFvecs(original, stem + ".fvecs"));
  ASSERT_TRUE(io::WriteBvecs(original, stem + ".bvecs"));
  ASSERT_TRUE(io::WriteRawF32(original, stem + ".f32"));
  // .fvecs and .bvecs carry their length; raw length is ignored there.
  const auto fvecs = io::ReadDataFile(stem + ".fvecs", 0);
  ASSERT_TRUE(fvecs.has_value());
  ASSERT_EQ(fvecs->size(), original.size());
  EXPECT_EQ(fvecs->row(4)[31], original.row(4)[31]);
  const auto bvecs = io::ReadDataFile(stem + ".bvecs", 7);
  ASSERT_TRUE(bvecs.has_value());
  EXPECT_EQ(bvecs->size(), original.size());
  EXPECT_EQ(bvecs->length(), original.length());
  // Any other name is raw float32, which needs its series length.
  EXPECT_FALSE(io::ReadDataFile(stem + ".f32", 0).has_value());
  const auto raw = io::ReadDataFile(stem + ".f32", 32);
  ASSERT_TRUE(raw.has_value());
  ASSERT_EQ(raw->size(), original.size());
  EXPECT_EQ(raw->row(4)[31], original.row(4)[31]);
}

// ------------------------------------------------------- serialization

TEST(SerializationTest, SofaIndexRoundTripAnswersIdentically) {
  ThreadPool pool(4);
  const Dataset data = Noise(3000, 128, 6);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  index::IndexConfig index_config;
  index_config.leaf_capacity = 150;
  const index::TreeIndex original(&data, scheme.get(), index_config, &pool);

  TempFile file("sofa_index");
  ASSERT_TRUE(index::SaveIndex(original, file.path()));
  const auto loaded = index::LoadIndex(file.path(), &data, &pool);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->scheme->name(), scheme->name());
  EXPECT_EQ(loaded->tree->root_bits(), original.root_bits());

  const index::TreeStats original_stats = original.ComputeStats();
  const index::TreeStats loaded_stats = loaded->tree->ComputeStats();
  EXPECT_EQ(loaded_stats.num_leaves, original_stats.num_leaves);
  EXPECT_EQ(loaded_stats.total_series, original_stats.total_series);
  EXPECT_EQ(loaded_stats.num_subtrees, original_stats.num_subtrees);

  const Dataset queries = Noise(10, 128, 7);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = original.SearchKnn(queries.row(q), 5);
    const auto actual = loaded->tree->SearchKnn(queries.row(q), 5);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i].distance, actual[i].distance) << "query " << q;
    }
  }
}

TEST(SerializationTest, MessiIndexRoundTrip) {
  ThreadPool pool(2);
  const Dataset data = Walk(2000, 96, 8);
  sax::SaxScheme scheme(96, 16, 256);
  const index::TreeIndex original(&data, &scheme, index::IndexConfig{},
                                  &pool);
  TempFile file("messi_index");
  ASSERT_TRUE(index::SaveIndex(original, file.path()));
  const auto loaded = index::LoadIndex(file.path(), &data, &pool);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->scheme->name(), "iSAX");
  const auto expected = BruteForceKnn(data, data.row(17), 3);
  EXPECT_TRUE(
      SameDistances(loaded->tree->SearchKnn(data.row(17), 3), expected));
}

TEST(SerializationTest, RejectsMismatchedDataset) {
  ThreadPool pool(2);
  const Dataset data = Noise(500, 64, 9);
  sax::SaxScheme scheme(64, 16, 256);
  const index::TreeIndex original(&data, &scheme, index::IndexConfig{},
                                  &pool);
  TempFile file("mismatch_index");
  ASSERT_TRUE(index::SaveIndex(original, file.path()));
  const Dataset other_size = Noise(400, 64, 10);
  EXPECT_FALSE(index::LoadIndex(file.path(), &other_size, &pool).has_value());
  const Dataset other_length = Noise(500, 96, 11);
  EXPECT_FALSE(
      index::LoadIndex(file.path(), &other_length, &pool).has_value());
}

TEST(SerializationTest, RejectsCorruptFile) {
  ThreadPool pool(2);
  const Dataset data = Noise(100, 64, 12);
  TempFile file("corrupt_index");
  {
    std::FILE* f = std::fopen(file.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "definitely not an index";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_FALSE(index::LoadIndex(file.path(), &data, &pool).has_value());
}

// ------------------------------------------------------- query profile

TEST(QueryProfileTest, CountersArePopulatedAndConsistent) {
  ThreadPool pool(4);
  const Dataset data = Noise(4000, 128, 13);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  index::IndexConfig index_config;
  index_config.leaf_capacity = 200;
  const index::TreeIndex index(&data, scheme.get(), index_config, &pool);
  const Dataset queries = Noise(5, 128, 14);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    index::QueryProfile profile;
    (void)index.SearchKnn(queries.row(q), 3, &profile);
    EXPECT_GT(profile.nodes_visited, 0u);
    EXPECT_GT(profile.series_ed_computed, 0u);  // at least the approx leaf
    EXPECT_GE(profile.series_lbd_checked, profile.series_lbd_pruned);
    EXPECT_GE(profile.nodes_visited, profile.nodes_pruned);
    const double ratio = profile.SeriesPruningRatio();
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
}

TEST(QueryProfileTest, MergeAddsCounters) {
  index::QueryProfile a;
  a.nodes_visited = 3;
  a.series_ed_computed = 7;
  index::QueryProfile b;
  b.nodes_visited = 2;
  b.series_lbd_pruned = 5;
  a.Merge(b);
  EXPECT_EQ(a.nodes_visited, 5u);
  EXPECT_EQ(a.series_ed_computed, 7u);
  EXPECT_EQ(a.series_lbd_pruned, 5u);
}

TEST(QueryProfileTest, SfaPrunesMoreThanSaxOnHighFrequencyData) {
  // The paper's core claim at the counter level: on (clustered)
  // high-frequency data the SFA summarization discards more series without
  // touching raw data. (i.i.d. data would show 0-vs-0 pruning — no
  // contrast, see the pruning-power tests.)
  ThreadPool pool(2);
  datagen::GenerateOptions options;
  options.count = 6000;
  options.num_queries = 6;
  const LabeledDataset ds = datagen::MakeDatasetByName("LenDB", options,
                                                       &pool);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto sfa_scheme = sfa::TrainSfa(ds.data, config, &pool);
  sax::SaxScheme sax_scheme(256, 16, 256);
  index::IndexConfig index_config;
  index_config.leaf_capacity = 300;
  const index::TreeIndex sofa_index(&ds.data, sfa_scheme.get(), index_config,
                                    &pool);
  const index::TreeIndex messi_index(&ds.data, &sax_scheme, index_config,
                                     &pool);
  std::uint64_t sfa_ed = 0;
  std::uint64_t sax_ed = 0;
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    index::QueryProfile sfa_profile;
    index::QueryProfile sax_profile;
    (void)sofa_index.SearchKnn(ds.queries.row(q), 1, &sfa_profile);
    (void)messi_index.SearchKnn(ds.queries.row(q), 1, &sax_profile);
    sfa_ed += sfa_profile.series_ed_computed;
    sax_ed += sax_profile.series_ed_computed;
  }
  EXPECT_LT(sfa_ed, sax_ed);
}

// --------------------------------------------------- approximate search

TEST(ApproximateSearchTest, EpsilonZeroEqualsExact) {
  ThreadPool pool(4);
  const Dataset data = Noise(3000, 128, 17);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  const index::TreeIndex index(&data, scheme.get(), index::IndexConfig{},
                               &pool);
  const Dataset queries = Noise(8, 128, 18);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto exact = index.SearchKnn(queries.row(q), 5);
    const auto approx = index.SearchKnnApproximate(queries.row(q), 5, 0.0);
    ASSERT_EQ(exact.size(), approx.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      ASSERT_EQ(exact[i].distance, approx[i].distance);
    }
  }
}

class EpsilonTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonTest, ResultWithinGuarantee) {
  const double epsilon = GetParam();
  ThreadPool pool(4);
  const Dataset data = Noise(4000, 128, 19);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  index::IndexConfig index_config;
  index_config.leaf_capacity = 200;
  const index::TreeIndex index(&data, scheme.get(), index_config, &pool);
  const Dataset queries = Noise(10, 128, 20);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto exact = BruteForceKnn(data, queries.row(q), 3);
    const auto approx =
        index.SearchKnnApproximate(queries.row(q), 3, epsilon);
    ASSERT_EQ(approx.size(), exact.size());
    for (std::size_t i = 0; i < approx.size(); ++i) {
      // Guarantee: within (1+ε) of the exact distance at the same rank.
      ASSERT_LE(approx[i].distance,
                exact[i].distance * (1.0 + epsilon) * (1.0 + 1e-4) + 1e-4)
          << "query " << q << " rank " << i << " eps " << epsilon;
      // And never better than exact (it is drawn from the same data).
      ASSERT_GE(approx[i].distance, exact[i].distance * (1.0 - 1e-4) - 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonTest,
                         ::testing::Values(0.05, 0.2, 0.5, 2.0));

TEST(ApproximateSearchTest, LargerEpsilonDoesNotIncreaseWork) {
  ThreadPool pool(2);
  const Dataset data = Noise(5000, 128, 21);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  index::IndexConfig index_config;
  index_config.leaf_capacity = 250;
  const index::TreeIndex index(&data, scheme.get(), index_config, &pool);
  const Dataset queries = Noise(5, 128, 22);
  std::uint64_t exact_ed = 0;
  std::uint64_t approx_ed = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    index::QueryProfile exact_profile;
    index::QueryProfile approx_profile;
    (void)index.SearchKnn(queries.row(q), 1, &exact_profile);
    (void)index.SearchKnnApproximate(queries.row(q), 1, 1.0,
                                     &approx_profile);
    exact_ed += exact_profile.series_ed_computed;
    approx_ed += approx_profile.series_ed_computed;
  }
  EXPECT_LE(approx_ed, exact_ed);
}

TEST(ApproximateSearchTest, LeafOnlyAnswersAreValidCandidates) {
  ThreadPool pool(2);
  const Dataset data = Noise(3000, 96, 23);
  sfa::SfaConfig config;
  config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  const index::TreeIndex index(&data, scheme.get(), index::IndexConfig{},
                               &pool);
  const Dataset queries = Noise(5, 96, 24);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto leaf_only = index.SearchKnnLeafOnly(queries.row(q), 3);
    ASSERT_FALSE(leaf_only.empty());
    const auto exact = index.SearchKnn(queries.row(q), 1);
    // Leaf-only can never beat the exact 1-NN.
    EXPECT_GE(leaf_only[0].distance, exact[0].distance - 1e-4f);
    // And each reported distance must be a real distance to that series.
    for (const Neighbor& nb : leaf_only) {
      const float d = std::sqrt(SquaredEuclidean(
          queries.row(q), data.row(nb.id), data.length()));
      EXPECT_NEAR(nb.distance, d, 1e-3f);
    }
  }
}

// ------------------------------------------------------- pruning power

TEST(PruningPowerTest, WithinUnitInterval) {
  const Dataset data = Noise(500, 128, 25);
  const Dataset queries = Noise(10, 128, 26);
  sfa::SfaConfig config;
  config.sampling_ratio = 1.0;
  const auto scheme = sfa::TrainSfa(data, config);
  const double power = sfa::MeanPruningPower(*scheme, data, queries);
  EXPECT_GE(power, 0.0);
  EXPECT_LE(power, 1.0);
}

TEST(PruningPowerTest, SfaBeatsSaxOnHighFrequencyData) {
  // Pruning power requires distance contrast (i.i.d. noise has none — the
  // curse of dimensionality), so use the clustered high-frequency
  // benchmark generator, where the paper reports 98% vs 38% at the first
  // tree level on SCEDC.
  datagen::GenerateOptions options;
  options.count = 2000;
  options.num_queries = 10;
  const LabeledDataset ds = datagen::MakeDatasetByName("LenDB", options);
  sfa::SfaConfig config;
  config.sampling_ratio = 1.0;
  const auto sfa_scheme = sfa::TrainSfa(ds.data, config);
  sax::SaxScheme sax_scheme(256, 16, 256);
  const double sfa_power =
      sfa::MeanPruningPower(*sfa_scheme, ds.data, ds.queries);
  const double sax_power =
      sfa::MeanPruningPower(sax_scheme, ds.data, ds.queries);
  EXPECT_GT(sfa_power, sax_power);
  EXPECT_GT(sfa_power, 0.1);  // meaningful pruning, not a 0-vs-0 artifact
}

TEST(PruningPowerTest, DeterministicGivenSeed) {
  const Dataset data = Noise(300, 96, 29);
  const Dataset queries = Noise(5, 96, 30);
  sax::SaxScheme scheme(96, 16, 256);
  sfa::TlbOptions options;
  options.seed = 5;
  EXPECT_DOUBLE_EQ(sfa::MeanPruningPower(scheme, data, queries, options),
                   sfa::MeanPruningPower(scheme, data, queries, options));
}

// ------------------------------------------------------------ AVX-512

#if defined(SOFA_COMPILE_AVX512)

class Avx512Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CpuSupportsAvx512()) {
      GTEST_SKIP() << "CPU lacks AVX-512";
    }
  }
};

TEST_F(Avx512Test, SquaredEuclideanMatchesScalar) {
  Rng rng(31);
  for (const std::size_t n : {1u, 15u, 16u, 17u, 31u, 32u, 96u, 100u, 256u}) {
    std::vector<float> a(n);
    std::vector<float> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.Gaussian());
      b[i] = static_cast<float>(rng.Gaussian());
    }
    const float s = scalar::SquaredEuclidean(a.data(), b.data(), n);
    const float v = avx512::SquaredEuclidean(a.data(), b.data(), n);
    ASSERT_NEAR(v, s, 1e-4f * (s + 1.0f)) << "n=" << n;
  }
}

TEST_F(Avx512Test, DotProductAndNormMatchScalar) {
  Rng rng(32);
  for (const std::size_t n : {7u, 16u, 33u, 128u, 255u}) {
    std::vector<float> a(n);
    std::vector<float> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.Gaussian());
      b[i] = static_cast<float>(rng.Gaussian());
    }
    ASSERT_NEAR(avx512::DotProduct(a.data(), b.data(), n),
                scalar::DotProduct(a.data(), b.data(), n),
                1e-3f * (std::fabs(scalar::DotProduct(a.data(), b.data(),
                                                      n)) +
                         1.0f));
    ASSERT_NEAR(avx512::SquaredNorm(a.data(), n),
                scalar::SquaredNorm(a.data(), n),
                1e-3f * (scalar::SquaredNorm(a.data(), n) + 1.0f));
  }
}

TEST_F(Avx512Test, EarlyAbandonDecisionsConsistent) {
  Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 64 + rng.Below(192);
    std::vector<float> a(n);
    std::vector<float> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.Gaussian());
      b[i] = static_cast<float>(rng.Gaussian());
    }
    const float exact = scalar::SquaredEuclidean(a.data(), b.data(), n);
    const float bound = static_cast<float>(rng.Uniform(0.0, exact * 1.5));
    const float result =
        avx512::SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, bound);
    if (result > bound) {
      ASSERT_GT(exact, bound * (1.0f - 1e-4f));
    } else {
      ASSERT_NEAR(result, exact, 1e-4f * (exact + 1.0f));
    }
  }
}

TEST_F(Avx512Test, LbdMatchesScalar) {
  Rng rng(34);
  for (const std::size_t dims : {8u, 16u, 17u, 24u, 32u}) {
    quant::BreakpointTable table(dims, 256);
    std::vector<float> weights(dims);
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    std::vector<float> sample(500);
    for (std::size_t d = 0; d < dims; ++d) {
      for (auto& v : sample) {
        v = static_cast<float>(rng.Gaussian());
      }
      table.SetDimension(d, quant::EquiDepthBreakpoints(sample, 256));
      weights[d] = static_cast<float>(rng.Uniform(0.5, 3.0));
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float s = quant::scalar::LbdSquared(table, weights.data(),
                                              query.data(), word.data());
    const float v = quant::avx512::LbdSquared(table, weights.data(),
                                              query.data(), word.data());
    ASSERT_NEAR(v, s, 1e-4f * (s + 1.0f)) << "dims=" << dims;
  }
}

#endif  // SOFA_COMPILE_AVX512

}  // namespace
}  // namespace sofa
