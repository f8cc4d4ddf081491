// Edge-case and configuration-space tests across modules: contract-check
// death tests, extreme alphabet sizes, unusual engine configurations, and
// documented boundary behaviours.

#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/io.h"
#include "datagen/datasets.h"
#include "index/tree_index.h"
#include "quant/binning.h"
#include "quant/lbd.h"
#include "sax/sax_scheme.h"
#include "sfa/mcb.h"
#include "sfa/tlb.h"
#include "test_data.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace sofa {
namespace {

using testing_data::BruteForceKnn;
using testing_data::Noise;
using testing_data::SameDistances;

// ---------------------------------------------------------------- checks

TEST(CheckDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(SOFA_CHECK(1 == 2) << "doom", "check failed");
}

TEST(CheckDeathTest, CheckComparatorsAbortWithContext) {
  EXPECT_DEATH(SOFA_CHECK_EQ(3, 4), "check failed");
  EXPECT_DEATH(SOFA_CHECK_LT(4, 3), "check failed");
}

TEST(CheckDeathTest, PassingChecksAreSilent) {
  SOFA_CHECK(true);
  SOFA_CHECK_EQ(1, 1);
  SOFA_CHECK_LE(1, 2);
}

// ----------------------------------------------------------- alphabet 2

TEST(SmallAlphabetTest, SaxAlphabetTwoStillLowerBounds) {
  Rng rng(1);
  sax::SaxScheme scheme(64, 8, 2);
  EXPECT_EQ(scheme.bits(), 1u);
  auto scratch = scheme.NewScratch();
  std::vector<float> projection(8);
  std::vector<std::uint8_t> word(8);
  float values[8];
  const Dataset data = Noise(50, 64, 2);
  const Dataset queries = Noise(10, 64, 3);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    scheme.Project(queries.row(q), projection.data(), scratch.get());
    for (std::size_t c = 0; c < data.size(); ++c) {
      scheme.Symbolize(data.row(c), word.data(), scratch.get(), values);
      const float lbd_sq = quant::LbdSquared(
          scheme.table(), scheme.weights(), projection.data(), word.data());
      const float ed_sq =
          SquaredEuclidean(queries.row(q), data.row(c), 64);
      ASSERT_LE(lbd_sq, ed_sq * 1.0001f + 1e-4f);
    }
  }
}

TEST(SmallAlphabetTest, IndexWithAlphabetTwoIsExact) {
  ThreadPool pool(2);
  const Dataset data = Noise(1000, 64, 4);
  sax::SaxScheme scheme(64, 16, 2);
  index::IndexConfig config;
  config.leaf_capacity = 64;
  const index::TreeIndex index(&data, &scheme, config, &pool);
  const Dataset queries = Noise(5, 64, 5);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnn(data, queries.row(q), 3);
    ASSERT_TRUE(
        SameDistances(index.SearchKnn(queries.row(q), 3), expected));
  }
}

TEST(SmallAlphabetTest, SfaAlphabetTwoTrains) {
  const Dataset data = Noise(200, 96, 6);
  sfa::SfaConfig config;
  config.alphabet = 2;
  config.word_length = 8;
  config.sampling_ratio = 1.0;
  const auto scheme = sfa::TrainSfa(data, config);
  EXPECT_EQ(scheme->alphabet(), 2u);
  const Dataset queries = Noise(5, 96, 7);
  const double tlb = sfa::MeanTlb(*scheme, data, queries);
  EXPECT_GE(tlb, 0.0);
  EXPECT_LE(tlb, 1.0);
}

// ------------------------------------------------------ engine configs

TEST(EngineConfigTest, TwoParticipantSearchIsExact) {
  ThreadPool pool(2);
  const Dataset data = Noise(3000, 128, 8);
  sfa::SfaConfig sfa_config;
  sfa_config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, sfa_config, &pool);
  index::IndexConfig config;
  config.num_threads = 2;
  config.leaf_capacity = 150;
  const index::TreeIndex index(&data, scheme.get(), config, &pool);
  const Dataset queries = Noise(6, 128, 9);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnn(data, queries.row(q), 5);
    ASSERT_TRUE(
        SameDistances(index.SearchKnn(queries.row(q), 5), expected));
  }
}

TEST(EngineConfigTest, MoreThreadsThanPoolWorkersIsExact) {
  // Oversubscription: config asks for more workers than the pool has.
  ThreadPool pool(2);
  const Dataset data = Noise(2000, 96, 10);
  sax::SaxScheme scheme(96, 16, 256);
  index::IndexConfig config;
  config.num_threads = 8;
  const index::TreeIndex index(&data, &scheme, config, &pool);
  const auto expected = BruteForceKnn(data, data.row(3), 4);
  EXPECT_TRUE(SameDistances(index.SearchKnn(data.row(3), 4), expected));
}

TEST(EngineConfigTest, FullRootFanoutOnSmallDataIsExact) {
  // The paper's constant: root_bits = 16 even when nearly every root child
  // holds a single series.
  ThreadPool pool(2);
  const Dataset data = Noise(2000, 128, 11);
  sax::SaxScheme scheme(128, 16, 256);
  index::IndexConfig config;
  config.root_bits = 16;
  const index::TreeIndex index(&data, &scheme, config, &pool);
  EXPECT_EQ(index.root_bits(), 16u);
  const Dataset queries = Noise(4, 128, 12);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnn(data, queries.row(q), 2);
    ASSERT_TRUE(
        SameDistances(index.SearchKnn(queries.row(q), 2), expected));
  }
}

TEST(EngineConfigTest, RoundRobinSplitIsExact) {
  ThreadPool pool(2);
  const Dataset data = Noise(3000, 128, 13);
  sfa::SfaConfig sfa_config;
  sfa_config.sampling_ratio = 0.2;
  const auto scheme = sfa::TrainSfa(data, sfa_config, &pool);
  index::IndexConfig config;
  config.split_policy = index::SplitPolicy::kRoundRobin;
  config.leaf_capacity = 100;
  const index::TreeIndex index(&data, scheme.get(), config, &pool);
  const Dataset queries = Noise(5, 128, 14);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnn(data, queries.row(q), 5);
    ASSERT_TRUE(
        SameDistances(index.SearchKnn(queries.row(q), 5), expected));
  }
}

// ------------------------------------------------------------ datagen

TEST(ClusterStructureTest, MixZeroGivesNoContrast) {
  // Without cluster structure, i.i.d. high-dimensional data concentrates:
  // the NN is nearly as far as the average — documented behaviour that
  // motivates the cluster templates.
  datagen::GenerateOptions options;
  options.count = 800;
  options.num_queries = 5;
  options.cluster_mix = 0.0;
  const LabeledDataset ds = datagen::MakeDatasetByName("SCEDC", options);
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    const auto all = testing_data::BruteForceKnn(
        ds.data, ds.queries.row(q), ds.data.size());
    const float nn = all.front().distance;
    const float median = all[all.size() / 2].distance;
    // Seismic traces share event morphology, so the ratio is not 1.0 even
    // i.i.d.; clustered data drives it below 0.6 (next test).
    EXPECT_GT(nn / median, 0.7f) << "unexpected contrast at mix 0";
  }
}

TEST(ClusterStructureTest, DefaultMixGivesContrast) {
  datagen::GenerateOptions options;
  options.count = 800;
  options.num_queries = 5;
  const LabeledDataset ds = datagen::MakeDatasetByName("SCEDC", options);
  std::size_t contrasted = 0;
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    const auto all = testing_data::BruteForceKnn(
        ds.data, ds.queries.row(q), ds.data.size());
    const float nn = all.front().distance;
    const float median = all[all.size() / 2].distance;
    contrasted += (nn / median < 0.6f) ? 1 : 0;
  }
  EXPECT_GE(contrasted, 4u);  // nearly every query has a near cluster
}

// ---------------------------------------------------------------- io

TEST(IoEdgeTest, EmptyFvecsFileYieldsNullopt) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "sofa_empty.fvecs").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  // An empty file has no dimension header at all: treated as unreadable.
  EXPECT_FALSE(io::ReadFvecs(path).has_value());
  std::remove(path.c_str());
}

TEST(IoEdgeTest, NegativeDimensionRejected) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "sofa_negdim.fvecs").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::int32_t dim = -4;
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(io::ReadFvecs(path).has_value());
  std::remove(path.c_str());
}

TEST(IoEdgeTest, InconsistentDimensionsRejected) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "sofa_mixed.fvecs").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const float values[4] = {1, 2, 3, 4};
    std::int32_t dim = 4;
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fwrite(values, sizeof(float), 4, f);
    dim = 3;
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fwrite(values, sizeof(float), 3, f);
    std::fclose(f);
  }
  EXPECT_FALSE(io::ReadFvecs(path).has_value());
  std::remove(path.c_str());
}

// ------------------------------------------------------------- binning

TEST(BinningEdgeTest, SingleValueSampleEquiDepth) {
  const auto edges = quant::EquiDepthBreakpoints({5.0f}, 4);
  ASSERT_EQ(edges.size(), 3u);
  for (float e : edges) {
    EXPECT_EQ(e, 5.0f);
  }
  // Quantize still produces a legal symbol for anything.
  EXPECT_LT(quant::Quantize(-100.0f, edges.data(), 4), 4);
  EXPECT_LT(quant::Quantize(100.0f, edges.data(), 4), 4);
}

TEST(BinningEdgeTest, ExtremeValuesQuantizeToOuterBins) {
  const std::vector<float> edges = {-1.0f, 0.0f, 1.0f};
  constexpr float kMax = std::numeric_limits<float>::max();
  EXPECT_EQ(quant::Quantize(-kMax, edges.data(), 4), 0);
  EXPECT_EQ(quant::Quantize(kMax, edges.data(), 4), 3);
}

}  // namespace
}  // namespace sofa
