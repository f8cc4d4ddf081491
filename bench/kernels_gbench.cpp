// Kernel microbenchmarks (google-benchmark) — the Section IV-H ablation:
// scalar vs SIMD for the Euclidean distance and LBD kernels, plus the
// per-series costs of the summarization pipeline (DFT, PAA, symbolize).

#include <benchmark/benchmark.h>

#include <limits>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/znorm.h"
#include "dft/real_dft.h"
#include "quant/binning.h"
#include "quant/breakpoint_table.h"
#include "quant/lbd.h"
#include "quant/rowq.h"
#include "sax/paa.h"
#include "sax/sax_scheme.h"
#include "sfa/mcb.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace {

using namespace sofa;

constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<float> RandomSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Gaussian());
  }
  ZNormalize(v.data(), n);
  return v;
}

// ------------------------------------------------- Euclidean distance

void BM_SquaredEuclidean_Scalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 1);
  const auto b = RandomSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar::SquaredEuclidean(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SquaredEuclidean_Scalar)->Arg(96)->Arg(128)->Arg(256);

#if defined(SOFA_HAVE_AVX2)
void BM_SquaredEuclidean_Avx2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 1);
  const auto b = RandomSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(avx2::SquaredEuclidean(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SquaredEuclidean_Avx2)->Arg(96)->Arg(128)->Arg(256);
#endif

void BM_EuclideanEarlyAbandon_TightBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 3);
  const auto b = RandomSeries(n, 4);
  // A bound at 10% of the exact distance abandons after the first chunks.
  const float bound = 0.1f * SquaredEuclidean(a.data(), b.data(), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, bound));
  }
}
BENCHMARK(BM_EuclideanEarlyAbandon_TightBound)->Arg(256);

void BM_EuclideanEarlyAbandon_LooseBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 3);
  const auto b = RandomSeries(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, kInf));
  }
}
BENCHMARK(BM_EuclideanEarlyAbandon_LooseBound)->Arg(256);

void BM_DotProduct(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 5);
  const auto b = RandomSeries(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DotProduct(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotProduct)->Arg(96)->Arg(256);

// ----------------------------------------------------------- rowq kernel

// The compressed pruning tier's quantized-row lower bound: u8 codes
// against a padded query. One fixture per length, shared across the
// scalar/SIMD/early-abandon variants below.
struct RowqSetup {
  std::shared_ptr<const quant::RowQuant> rowq;
  AlignedVector<float> padded_query;

  explicit RowqSetup(std::size_t n) {
    Dataset data(n);
    std::vector<float> row(n);
    Rng rng(13);
    for (int i = 0; i < 64; ++i) {
      for (auto& x : row) {
        x = static_cast<float>(rng.Gaussian());
      }
      ZNormalize(row.data(), n);
      data.Append(row.data());
    }
    rowq = quant::RowQuant::Build(data);
    const auto query = RandomSeries(n, 14);
    padded_query.assign(rowq->quantizer().padded_length(), 0.0f);
    rowq->quantizer().PadQuery(query.data(), padded_query.data());
  }
};

void BM_RowqLowerBound_Scalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  RowqSetup setup(n);
  const quant::RowQuantizer& q = setup.rowq->quantizer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::scalar::RowqLowerBoundSquared(
        setup.padded_query.data(), q.mins(), q.deltas(), setup.rowq->code(0),
        q.padded_length()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowqLowerBound_Scalar)->Arg(96)->Arg(128)->Arg(256);

void BM_RowqLowerBound_Dispatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  RowqSetup setup(n);
  const quant::RowQuantizer& q = setup.rowq->quantizer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::RowqLowerBoundSquared(
        setup.padded_query.data(), q.mins(), q.deltas(), setup.rowq->code(0),
        q.padded_length()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowqLowerBound_Dispatch)->Arg(96)->Arg(128)->Arg(256);

void BM_RowqEarlyAbandon_TightBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  RowqSetup setup(n);
  const quant::RowQuantizer& q = setup.rowq->quantizer();
  // A threshold at 10% of the full sum stops the scan within the first
  // blocks — the serving shape when the BSF is already tight.
  const float full = quant::RowqLowerBoundSquared(
      setup.padded_query.data(), q.mins(), q.deltas(), setup.rowq->code(0),
      q.padded_length());
  const float abandon = 0.1f * full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::RowqLowerBoundSquaredEarlyAbandon(
        setup.padded_query.data(), q.mins(), q.deltas(), setup.rowq->code(0),
        q.padded_length(), abandon));
  }
}
BENCHMARK(BM_RowqEarlyAbandon_TightBound)->Arg(256);

void BM_RowqEarlyAbandon_LooseBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  RowqSetup setup(n);
  const quant::RowQuantizer& q = setup.rowq->quantizer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::RowqLowerBoundSquaredEarlyAbandon(
        setup.padded_query.data(), q.mins(), q.deltas(), setup.rowq->code(0),
        q.padded_length(), kInf));
  }
}
BENCHMARK(BM_RowqEarlyAbandon_LooseBound)->Arg(256);

// ----------------------------------------------------------- LBD kernel

struct LbdSetup {
  quant::BreakpointTable table;
  std::vector<float> weights;
  std::vector<float> query;
  std::vector<std::uint8_t> word;

  LbdSetup(std::size_t l, std::size_t alphabet)
      : table(l, alphabet), weights(l, 2.0f), query(l), word(l) {
    Rng rng(7);
    std::vector<float> sample(2000);
    for (std::size_t d = 0; d < l; ++d) {
      for (auto& v : sample) {
        v = static_cast<float>(rng.Gaussian());
      }
      table.SetDimension(d,
                         quant::EquiWidthBreakpoints(sample, alphabet));
      query[d] = static_cast<float>(rng.Gaussian());
      word[d] = table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
  }
};

void BM_Lbd_Scalar(benchmark::State& state) {
  LbdSetup setup(static_cast<std::size_t>(state.range(0)), 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::scalar::LbdSquared(
        setup.table, setup.weights.data(), setup.query.data(),
        setup.word.data()));
  }
}
BENCHMARK(BM_Lbd_Scalar)->Arg(16)->Arg(32);

#if defined(SOFA_HAVE_AVX2)
void BM_Lbd_Avx2(benchmark::State& state) {
  LbdSetup setup(static_cast<std::size_t>(state.range(0)), 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::avx2::LbdSquared(
        setup.table, setup.weights.data(), setup.query.data(),
        setup.word.data()));
  }
}
BENCHMARK(BM_Lbd_Avx2)->Arg(16)->Arg(32);
#endif

// The query engine's series-LBD pass: one query's lookup table over a
// block of words, best tier. Reports ns per word.
void BM_LbdTable(benchmark::State& state) {
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  LbdSetup setup(l, 256);
  const quant::LbdTable table(setup.table, setup.weights.data(),
                              setup.query.data());
  constexpr std::size_t kWords = 2048;
  std::vector<std::uint8_t> words(kWords * l);
  Rng rng(8);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = setup.table.Quantize(i % l, static_cast<float>(rng.Gaussian()));
  }
  std::vector<float> out(kWords);
  for (auto _ : state) {
    quant::LbdSquaredBlock(table, words.data(), kWords, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_word"] = benchmark::Counter(
      static_cast<double>(kWords),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_LbdTable)->Arg(16)->Arg(32);

// ----------------------------------------------------- summarizations

void BM_RealDft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto series = RandomSeries(n, 8);
  dft::RealDftPlan plan(n);
  dft::RealDftPlan::Scratch scratch;
  std::vector<std::complex<float>> coeffs(plan.num_coefficients());
  for (auto _ : state) {
    plan.Transform(series.data(), coeffs.data(), &scratch);
    benchmark::DoNotOptimize(coeffs.data());
  }
}
BENCHMARK(BM_RealDft)->Arg(96)->Arg(100)->Arg(128)->Arg(256);

void BM_Paa(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto series = RandomSeries(n, 9);
  float out[16];
  for (auto _ : state) {
    sax::Paa(series.data(), n, 16, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Paa)->Arg(256);

void BM_SaxSymbolize(benchmark::State& state) {
  const std::size_t n = 256;
  const auto series = RandomSeries(n, 10);
  sax::SaxScheme scheme(n, 16, 256);
  auto scratch = scheme.NewScratch();
  float values[16];
  std::uint8_t word[16];
  for (auto _ : state) {
    scheme.Symbolize(series.data(), word, scratch.get(), values);
    benchmark::DoNotOptimize(word);
  }
}
BENCHMARK(BM_SaxSymbolize);

void BM_SfaSymbolize(benchmark::State& state) {
  const std::size_t n = 256;
  Rng rng(11);
  Dataset train(n);
  std::vector<float> row(n);
  for (int i = 0; i < 500; ++i) {
    for (auto& x : row) {
      x = static_cast<float>(rng.Gaussian());
    }
    ZNormalize(row.data(), n);
    train.Append(row.data());
  }
  sfa::SfaConfig config;
  config.sampling_ratio = 1.0;
  const auto scheme = sfa::TrainSfa(train, config);
  auto scratch = scheme->NewScratch();
  const auto series = RandomSeries(n, 12);
  float values[16];
  std::uint8_t word[16];
  for (auto _ : state) {
    scheme->Symbolize(series.data(), word, scratch.get(), values);
    benchmark::DoNotOptimize(word);
  }
}
BENCHMARK(BM_SfaSymbolize);

}  // namespace

BENCHMARK_MAIN();
