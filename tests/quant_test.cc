// Tests for the quantization substrate: binning rules, normal quantiles,
// breakpoint tables with hierarchical cardinality, and the LBD kernels
// (scalar vs SIMD, the per-query table kernel, node-level prefixes).

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"  // CpuSupportsAvx512
#include "quant/binning.h"
#include "quant/breakpoint_table.h"
#include "quant/lbd.h"
#include "quant/normal_quantiles.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sofa {
namespace quant {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------- binning

TEST(BinningTest, EquiWidthEdgesAreEquallySpaced) {
  const std::vector<float> values = {0.0f, 10.0f};
  const auto edges = EquiWidthBreakpoints(values, 4);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_FLOAT_EQ(edges[0], 2.5f);
  EXPECT_FLOAT_EQ(edges[1], 5.0f);
  EXPECT_FLOAT_EQ(edges[2], 7.5f);
}

TEST(BinningTest, EquiDepthBalancesMass) {
  // 1000 uniform values: each of 4 bins should get ~250.
  Rng rng(1);
  std::vector<float> values(1000);
  for (auto& v : values) {
    v = static_cast<float>(rng.Uniform());
  }
  const auto edges = EquiDepthBreakpoints(values, 4);
  ASSERT_EQ(edges.size(), 3u);
  std::vector<int> counts(4, 0);
  for (float v : values) {
    counts[Quantize(v, edges.data(), 4)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 250, 20);
  }
}

TEST(BinningTest, EquiDepthEdgesAreMonotone) {
  Rng rng(2);
  std::vector<float> values(500);
  for (auto& v : values) {
    v = static_cast<float>(rng.Gaussian());
  }
  const auto edges = EquiDepthBreakpoints(values, 256);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    ASSERT_LE(edges[i - 1], edges[i]);
  }
}

TEST(BinningTest, EquiWidthDegenerateSampleYieldsEqualEdges) {
  const std::vector<float> values(10, 3.0f);
  const auto edges = EquiWidthBreakpoints(values, 8);
  for (float e : edges) {
    EXPECT_FLOAT_EQ(e, 3.0f);
  }
  // Everything still quantizes into a valid symbol.
  EXPECT_LT(Quantize(2.0f, edges.data(), 8), 8);
  EXPECT_LT(Quantize(3.0f, edges.data(), 8), 8);
  EXPECT_LT(Quantize(4.0f, edges.data(), 8), 8);
}

TEST(BinningTest, QuantizeHalfOpenIntervalConvention) {
  // Bin b covers [edge[b-1], edge[b]).
  const std::vector<float> edges = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(Quantize(0.5f, edges.data(), 4), 0);
  EXPECT_EQ(Quantize(1.0f, edges.data(), 4), 1);  // on edge -> upper bin
  EXPECT_EQ(Quantize(1.5f, edges.data(), 4), 1);
  EXPECT_EQ(Quantize(2.0f, edges.data(), 4), 2);
  EXPECT_EQ(Quantize(2.999f, edges.data(), 4), 2);
  EXPECT_EQ(Quantize(3.0f, edges.data(), 4), 3);
  EXPECT_EQ(Quantize(100.0f, edges.data(), 4), 3);
}

TEST(BinningTest, QuantizeMatchesLinearScanForRandomInput) {
  Rng rng(3);
  std::vector<float> sample(300);
  for (auto& v : sample) {
    v = static_cast<float>(rng.Gaussian());
  }
  for (const std::size_t alphabet : {2u, 8u, 64u, 256u}) {
    const auto edges = EquiDepthBreakpoints(sample, alphabet);
    for (int trial = 0; trial < 500; ++trial) {
      const float v = static_cast<float>(rng.Gaussian(0.0, 2.0));
      std::size_t expected = 0;
      while (expected < alphabet - 1 && edges[expected] <= v) {
        ++expected;
      }
      ASSERT_EQ(Quantize(v, edges.data(), alphabet), expected)
          << "value " << v << " alphabet " << alphabet;
    }
  }
}

TEST(BinningTest, LearnBreakpointsDispatches) {
  const std::vector<float> values = {0.0f, 1.0f, 2.0f, 3.0f, 4.0f,
                                     5.0f, 6.0f, 7.0f, 8.0f, 10.0f};
  const auto ew = LearnBreakpoints(values, 2, BinningMethod::kEquiWidth);
  const auto ed = LearnBreakpoints(values, 2, BinningMethod::kEquiDepth);
  ASSERT_EQ(ew.size(), 1u);
  ASSERT_EQ(ed.size(), 1u);
  EXPECT_FLOAT_EQ(ew[0], 5.0f);   // midpoint of range
  EXPECT_NEAR(ed[0], 4.5f, 0.1f); // median
}

TEST(BinningTest, MethodNames) {
  EXPECT_STREQ(BinningMethodName(BinningMethod::kEquiDepth), "equi-depth");
  EXPECT_STREQ(BinningMethodName(BinningMethod::kEquiWidth), "equi-width");
}

// ------------------------------------------------------- normal quantiles

TEST(NormalQuantilesTest, KnownQuantiles) {
  EXPECT_NEAR(InverseStdNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseStdNormalCdf(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(InverseStdNormalCdf(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(InverseStdNormalCdf(0.8413447461), 1.0, 1e-6);
}

TEST(NormalQuantilesTest, RoundTripsThroughCdf) {
  for (double p = 0.001; p < 1.0; p += 0.013) {
    const double x = InverseStdNormalCdf(p);
    EXPECT_NEAR(stats::StdNormalCdf(x), p, 1e-9) << "p=" << p;
  }
}

TEST(NormalQuantilesTest, BreakpointsSymmetricAndMonotone) {
  for (const std::size_t alphabet : {2u, 4u, 8u, 256u}) {
    const auto edges = NormalBreakpoints(alphabet);
    ASSERT_EQ(edges.size(), alphabet - 1);
    for (std::size_t i = 1; i < edges.size(); ++i) {
      ASSERT_LT(edges[i - 1], edges[i]);
    }
    // Symmetry around 0.
    for (std::size_t i = 0; i < edges.size(); ++i) {
      ASSERT_NEAR(edges[i], -edges[edges.size() - 1 - i], 1e-5);
    }
  }
}

TEST(NormalQuantilesTest, ClassicSaxBreakpointsAlphabet4) {
  // The textbook SAX table for |Σ|=4: {-0.6745, 0, 0.6745}.
  const auto edges = NormalBreakpoints(4);
  EXPECT_NEAR(edges[0], -0.6745f, 1e-3f);
  EXPECT_NEAR(edges[1], 0.0f, 1e-6f);
  EXPECT_NEAR(edges[2], 0.6745f, 1e-3f);
}

// ---------------------------------------------------- breakpoint table

BreakpointTable MakeTestTable(std::size_t dims, std::size_t alphabet,
                              std::uint64_t seed) {
  Rng rng(seed);
  BreakpointTable table(dims, alphabet);
  for (std::size_t d = 0; d < dims; ++d) {
    std::vector<float> sample(400);
    for (auto& v : sample) {
      v = static_cast<float>(rng.Gaussian(0.0, 1.0 + d));
    }
    table.SetDimension(d, EquiDepthBreakpoints(sample, alphabet));
  }
  return table;
}

TEST(BreakpointTableTest, BitsComputed) {
  EXPECT_EQ(BreakpointTable(4, 256).bits(), 8u);
  EXPECT_EQ(BreakpointTable(4, 2).bits(), 1u);
  EXPECT_EQ(BreakpointTable(4, 16).bits(), 4u);
}

TEST(BreakpointTableTest, FullCardinalityBoundsBracketValue) {
  const auto table = MakeTestTable(4, 256, 11);
  Rng rng(12);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t dim = rng.Below(4);
    const float v = static_cast<float>(rng.Gaussian(0.0, 3.0));
    const std::uint8_t s = table.Quantize(dim, v);
    EXPECT_LE(table.PrefixLower(dim, s, 8), v);
    EXPECT_GT(table.PrefixUpper(dim, s, 8), v);
  }
}

TEST(BreakpointTableTest, OuterBinsExtendToInfinity) {
  const auto table = MakeTestTable(2, 16, 13);
  EXPECT_EQ(table.PrefixLower(0, 0, 4), -kInf);
  EXPECT_EQ(table.PrefixUpper(0, 15, 4), kInf);
  EXPECT_EQ(table.PrefixLower(1, 0, 1), -kInf);
  EXPECT_EQ(table.PrefixUpper(1, 1, 1), kInf);
}

TEST(BreakpointTableTest, PrefixIntervalsNestProperly) {
  // The interval of a prefix at cardinality c contains the intervals of
  // both its cardinality-(c+1) children.
  const auto table = MakeTestTable(1, 256, 14);
  for (std::uint32_t c = 1; c < 8; ++c) {
    for (std::uint32_t p = 0; p < (1u << c); ++p) {
      const float lo = table.PrefixLower(0, p, c);
      const float hi = table.PrefixUpper(0, p, c);
      const float child0_lo = table.PrefixLower(0, 2 * p, c + 1);
      const float child1_hi = table.PrefixUpper(0, 2 * p + 1, c + 1);
      ASSERT_EQ(lo, child0_lo);
      ASSERT_EQ(hi, child1_hi);
      ASSERT_LE(table.PrefixUpper(0, 2 * p, c + 1),
                table.PrefixLower(0, 2 * p + 1, c + 1) + 1e-20f);
    }
  }
}

TEST(BreakpointTableTest, MinDistZeroInsideInterval) {
  const auto table = MakeTestTable(2, 64, 15);
  Rng rng(16);
  for (int trial = 0; trial < 500; ++trial) {
    const float v = static_cast<float>(rng.Gaussian());
    const std::uint8_t s = table.Quantize(0, v);
    EXPECT_EQ(table.MinDist(0, s, v), 0.0f);
  }
}

TEST(BreakpointTableTest, MinDistIsDistanceToNearestBreakpoint) {
  BreakpointTable table(1, 4);
  table.SetDimension(0, {-1.0f, 0.0f, 1.0f});
  // Symbol 1 covers [-1, 0).
  EXPECT_FLOAT_EQ(table.MinDist(0, 1, -2.0f), 1.0f);   // below
  EXPECT_FLOAT_EQ(table.MinDist(0, 1, -0.5f), 0.0f);   // inside
  EXPECT_FLOAT_EQ(table.MinDist(0, 1, 0.75f), 0.75f);  // above
}

TEST(BreakpointTableTest, MinDistPrefixNeverExceedsFullCardinality) {
  // Coarser intervals are supersets: mindist must be monotonically
  // non-increasing as cardinality decreases.
  const auto table = MakeTestTable(1, 256, 17);
  Rng rng(18);
  for (int trial = 0; trial < 1000; ++trial) {
    const float word_value = static_cast<float>(rng.Gaussian());
    const float query = static_cast<float>(rng.Gaussian(0.0, 2.0));
    const std::uint8_t s = table.Quantize(0, word_value);
    float previous = table.MinDist(0, s, query);
    for (std::uint32_t c = 7; c >= 1; --c) {
      const std::uint32_t prefix = s >> (8 - c);
      const float d = table.MinDistPrefix(0, prefix, c, query);
      ASSERT_LE(d, previous + 1e-6f);
      previous = d;
    }
  }
}

TEST(BreakpointTableTest, GatherArraysMatchPrefixBounds) {
  const auto table = MakeTestTable(3, 32, 19);
  for (std::size_t dim = 0; dim < 3; ++dim) {
    for (std::uint32_t s = 0; s < 32; ++s) {
      EXPECT_EQ(table.lower_bounds()[dim * 32 + s],
                table.PrefixLower(dim, s, 5));
      EXPECT_EQ(table.upper_bounds()[dim * 32 + s],
                table.PrefixUpper(dim, s, 5));
    }
  }
}

// ---------------------------------------------------------------- LBD

struct LbdFixture {
  BreakpointTable table;
  std::vector<float> weights;

  LbdFixture(std::size_t dims, std::size_t alphabet, std::uint64_t seed)
      : table(MakeTestTable(dims, alphabet, seed)), weights(dims) {
    Rng rng(seed + 1);
    for (auto& w : weights) {
      w = static_cast<float>(rng.Uniform(0.5, 3.0));
    }
  }
};

class LbdDimsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LbdDimsTest, ScalarMatchesDirectEvaluation) {
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 256, 21);
  Rng rng(22);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    double expected = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double m = fx.table.MinDist(d, word[d], query[d]);
      expected += fx.weights[d] * m * m;
    }
    const float actual = scalar::LbdSquared(fx.table, fx.weights.data(),
                                            query.data(), word.data());
    ASSERT_NEAR(actual, expected, 1e-4 * (expected + 1.0));
  }
}

#if defined(SOFA_HAVE_AVX2)
TEST_P(LbdDimsTest, Avx2MatchesScalar) {
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 256, 23);
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float s = scalar::LbdSquared(fx.table, fx.weights.data(),
                                       query.data(), word.data());
    const float v = avx2::LbdSquared(fx.table, fx.weights.data(),
                                     query.data(), word.data());
    ASSERT_NEAR(v, s, 1e-4f * (s + 1.0f));
  }
}

#endif  // SOFA_HAVE_AVX2

#if defined(SOFA_COMPILE_AVX512)
TEST_P(LbdDimsTest, Avx512MatchesScalar) {
  if (!CpuSupportsAvx512()) {
    GTEST_SKIP() << "AVX512 not available on this machine";
  }
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 256, 41);
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float s = scalar::LbdSquared(fx.table, fx.weights.data(),
                                       query.data(), word.data());
    const float v = avx512::LbdSquared(fx.table, fx.weights.data(),
                                       query.data(), word.data());
    ASSERT_NEAR(v, s, 1e-4f * (s + 1.0f));
  }
}

#endif  // SOFA_COMPILE_AVX512

INSTANTIATE_TEST_SUITE_P(Dims, LbdDimsTest,
                         ::testing::Values(1, 4, 7, 8, 9, 15, 16, 17, 24, 32));

TEST(LbdTest, ZeroForWordOfSameValues) {
  // A query whose projection falls inside every interval of the word has
  // LBD 0 — in particular the word of the query itself.
  LbdFixture fx(16, 256, 29);
  Rng rng(30);
  std::vector<float> query(16);
  std::vector<std::uint8_t> word(16);
  for (std::size_t d = 0; d < 16; ++d) {
    query[d] = static_cast<float>(rng.Gaussian());
    word[d] = fx.table.Quantize(d, query[d]);
  }
  EXPECT_EQ(LbdSquared(fx.table, fx.weights.data(), query.data(),
                       word.data()),
            0.0f);
}

TEST(LbdTest, NodeLbdUnconstrainedDimsContributeNothing) {
  LbdFixture fx(8, 256, 31);
  std::vector<float> query(8, 100.0f);  // far outside everything
  std::vector<std::uint8_t> prefixes(8, 0);
  std::vector<std::uint8_t> cards(8, 0);  // all unconstrained
  EXPECT_EQ(NodeLbdSquared(fx.table, fx.weights.data(), query.data(),
                           prefixes.data(), cards.data()),
            0.0f);
}

TEST(LbdTest, NodeLbdNeverExceedsLeafLbd) {
  // Node prefixes are coarser than full-cardinality words, so the node LBD
  // must lower-bound the word LBD for any contained word.
  LbdFixture fx(16, 256, 32);
  Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<float> query(16);
    std::vector<std::uint8_t> word(16);
    std::vector<std::uint8_t> prefixes(16);
    std::vector<std::uint8_t> cards(16);
    for (std::size_t d = 0; d < 16; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
      cards[d] = static_cast<std::uint8_t>(rng.Below(9));  // 0..8
      prefixes[d] =
          cards[d] == 0 ? 0 : static_cast<std::uint8_t>(word[d] >> (8 - cards[d]));
    }
    const float node = NodeLbdSquared(fx.table, fx.weights.data(),
                                      query.data(), prefixes.data(),
                                      cards.data());
    const float leaf = LbdSquared(fx.table, fx.weights.data(), query.data(),
                                  word.data());
    ASSERT_LE(node, leaf * (1.0f + 1e-5f) + 1e-5f);
  }
}

// Pinned numeric outputs for a hand-built table: the values below are
// exact in float arithmetic (small integers), so every ISA — and every
// future refactor — must reproduce them bit for bit. A regression here
// means the mindist semantics changed, not just its rounding.
TEST(LbdGoldenTest, PinnedVectorsMatchEveryIsa) {
  const std::size_t dims = 16;
  BreakpointTable table(dims, 4);
  for (std::size_t d = 0; d < dims; ++d) {
    table.SetDimension(d, {-1.0f, 0.0f, 1.0f});
  }
  // word d%4 cycles the four intervals; query 2.0 sits above all of
  // them, so per-dim mindist² cycles 9 (code 0: 2-(-1)), 4, 1, 0.
  std::vector<float> query(dims, 2.0f);
  std::vector<std::uint8_t> word(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    word[d] = static_cast<std::uint8_t>(d % 4);
  }
  const std::vector<float> unit(dims, 1.0f);
  std::vector<float> alternating(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    alternating[d] = static_cast<float>(d % 2 + 1);  // 1,2,1,2,...
  }
  // 4 · (9 + 4 + 1 + 0) = 56; weighted: 4 · (9 + 8 + 1 + 0) = 72.
  EXPECT_EQ(scalar::LbdSquared(table, unit.data(), query.data(), word.data()),
            56.0f);
  EXPECT_EQ(scalar::LbdSquared(table, alternating.data(), query.data(),
                               word.data()),
            72.0f);
  EXPECT_EQ(LbdSquared(table, unit.data(), query.data(), word.data()), 56.0f);
  float block = 0.0f;
  LbdSquaredBlock(LbdTable(table, unit.data(), query.data()), word.data(), 1,
                  &block);
  EXPECT_EQ(block, 56.0f);
  LbdSquaredBlock(LbdTable(table, alternating.data(), query.data()),
                  word.data(), 1, &block);
  EXPECT_EQ(block, 72.0f);
#if defined(SOFA_HAVE_AVX2)
  EXPECT_EQ(avx2::LbdSquared(table, unit.data(), query.data(), word.data()),
            56.0f);
  EXPECT_EQ(avx2::LbdSquared(table, alternating.data(), query.data(),
                             word.data()),
            72.0f);
#endif
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    EXPECT_EQ(
        avx512::LbdSquared(table, unit.data(), query.data(), word.data()),
        56.0f);
    EXPECT_EQ(avx512::LbdSquared(table, alternating.data(), query.data(),
                                 word.data()),
              72.0f);
  }
#endif
}

// ------------------------------------------------------ LBD table kernel

// The block kernel's documented sum, evaluated independently: terms
// weight·(d·d) from BreakpointTable::MinDist, each 16-dim chunk (zero
// padded) summed in _mm512_reduce_add_ps's pairing, chunks in order.
float ReferenceBlockLbd(const LbdFixture& fx, const float* query,
                        const std::uint8_t* word) {
  const std::size_t l = fx.table.word_length();
  float sum = 0.0f;
  for (std::size_t chunk = 0; chunk < l; chunk += 16) {
    float t[16] = {};
    for (std::size_t lane = 0; lane < 16 && chunk + lane < l; ++lane) {
      const std::size_t dim = chunk + lane;
      const float d = fx.table.MinDist(dim, word[dim], query[dim]);
      t[lane] = fx.weights[dim] * (d * d);
    }
    float s8[8];
    for (int i = 0; i < 8; ++i) {
      s8[i] = t[i] + t[i + 8];
    }
    const float s4[4] = {s8[0] + s8[4], s8[1] + s8[5], s8[2] + s8[6],
                         s8[3] + s8[7]};
    sum += (s4[0] + s4[2]) + (s4[1] + s4[3]);
  }
  return sum;
}

std::uint32_t Bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class LbdBlockTest : public ::testing::TestWithParam<
                         std::tuple<std::size_t, std::size_t>> {};

// Every compiled tier returns the reference sum bit for bit, for any word
// length, alphabet and block length (including blocks that are not a
// multiple of 16 words and words that are not a multiple of 16 symbols).
TEST_P(LbdBlockTest, EveryTierMatchesTheReferenceBitForBit) {
  const auto [l, alphabet] = GetParam();
  LbdFixture fx(l, alphabet, 60 + l + alphabet);
  Rng rng(61 + l * alphabet);
  std::vector<float> query(l);
  for (auto& q : query) {
    q = static_cast<float>(rng.Gaussian(0.0, 2.0));
  }
  const LbdTable table(fx.table, fx.weights.data(), query.data());
  ASSERT_EQ(table.word_length(), l);
  ASSERT_EQ(table.alphabet(), alphabet);
  for (const std::size_t count : {0u, 1u, 15u, 16u, 17u, 2000u}) {
    // Sized exactly, so a kernel that reads past the last word trips ASan.
    std::vector<std::uint8_t> words(count * l);
    for (auto& symbol : words) {
      symbol = static_cast<std::uint8_t>(rng.Below(alphabet));
    }
    std::vector<float> expected(count);
    for (std::size_t i = 0; i < count; ++i) {
      expected[i] = ReferenceBlockLbd(fx, query.data(), words.data() + i * l);
      double direct = 0.0;  // the LBD itself, in double
      for (std::size_t dim = 0; dim < l; ++dim) {
        const double d = fx.table.MinDist(dim, words[i * l + dim], query[dim]);
        direct += fx.weights[dim] * d * d;
      }
      ASSERT_NEAR(expected[i], direct, 1e-5 * direct + 1e-6);
    }
    const auto check = [&](const char* tier, auto kernel) {
      std::vector<float> got(count + 1, -1.0f);  // one guard slot
      kernel(table, words.data(), count, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
            << tier << " word " << i << " of " << count << ": " << got[i]
            << " vs " << expected[i];
      }
      ASSERT_EQ(got[count], -1.0f) << tier << " wrote past the block";
    };
    check("scalar", scalar::LbdSquaredBlock);
    check("dispatch", LbdSquaredBlock);
#if defined(SOFA_HAVE_AVX2)
    check("avx2", avx2::LbdSquaredBlock);
#endif
#if defined(SOFA_COMPILE_AVX512)
    if (CpuSupportsAvx512()) {
      check("avx512", avx512::LbdSquaredBlock);
    }
#endif
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LbdBlockTest,
    ::testing::Combine(::testing::Values(1, 7, 8, 15, 16, 17, 32),
                       ::testing::Values(2, 4, 16, 256)));

// At the shipped shape (word 16, alphabet 256) the table kernel returns
// exactly what the paper's AVX-512 kernel returns, so a search makes the
// same pruning decisions with either.
TEST(LbdBlockTest, ShippedShapeEqualsAvx512Algorithm3) {
#if defined(SOFA_COMPILE_AVX512)
  if (!CpuSupportsAvx512()) {
    GTEST_SKIP() << "AVX512 not available on this machine";
  }
  LbdFixture fx(16, 256, 70);
  Rng rng(71);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> query(16);
    for (auto& q : query) {
      q = static_cast<float>(rng.Gaussian(0.0, 2.0));
    }
    const LbdTable table(fx.table, fx.weights.data(), query.data());
    std::vector<std::uint8_t> words(100 * 16);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = fx.table.Quantize(i % 16, static_cast<float>(rng.Gaussian()));
    }
    std::vector<float> got(100);
    LbdSquaredBlock(table, words.data(), 100, got.data());
    for (std::size_t i = 0; i < 100; ++i) {
      const float paper = avx512::LbdSquared(fx.table, fx.weights.data(),
                                             query.data(), &words[i * 16]);
      ASSERT_EQ(Bits(got[i]), Bits(paper)) << "trial " << trial << " word "
                                           << i;
    }
  }
#else
  GTEST_SKIP() << "AVX512 kernels not compiled";
#endif
}

TEST(LbdTest, WeightsScaleContributions) {
  BreakpointTable table(1, 4);
  table.SetDimension(0, {-1.0f, 0.0f, 1.0f});
  const float query[] = {2.0f};
  const std::uint8_t word[] = {0};  // interval (-inf, -1): mindist = 3
  const float w1[] = {1.0f};
  const float w4[] = {4.0f};
  EXPECT_FLOAT_EQ(scalar::LbdSquared(table, w1, query, word), 9.0f);
  EXPECT_FLOAT_EQ(scalar::LbdSquared(table, w4, query, word), 36.0f);
}

}  // namespace
}  // namespace quant
}  // namespace sofa
