// Lower-bounding distance (LBD) kernels — the pruning workhorse of the
// GEMINI engines (paper Section IV-E3 / IV-H, Algorithm 3).
//
// All functions return the *squared* LBD:
//   LBD² = Σ_i weight_i · mindist(query_value_i, interval(word_i))²
// where mindist is Eq. 2: 0 inside the interval, distance to the nearer
// breakpoint outside. With iSAX inputs this is the classic mindist; with
// SFA inputs it is the SFA lower bound.
//
// Two ways to evaluate it:
//   * LbdSquared — the paper's Algorithm 3, one word at a time: gather
//     both interval bounds of every symbol, mask, square and reduce. The
//     TLB ablations and the tests' reference use it.
//   * LbdTable + LbdSquaredBlock — what the query engine runs. A query's
//     weighted squared mindist to every symbol of every dimension is
//     computed once (Johnson et al.'s product-quantization distance
//     table); a word then costs one table lookup per dimension, and the
//     SIMD tiers gather one word per instruction and reduce 16 words
//     together.
//
// The block kernel has one term formula and one summation order on every
// tier, so scalar, AVX2 and AVX-512 return the same float bit for bit:
// each term is weight·(d·d); each 16-dimension chunk (the last one padded
// with zeros) is summed pairwise in _mm512_reduce_add_ps's order —
// lanes i and i+8, then j and j+4, then 0 and 2 / 1 and 3, then the two
// halves; the chunk sums are added in order. At word length 16 this is
// also exactly what avx512::LbdSquared returns.
//
// Scalar and SIMD variants are independently callable (tests assert
// equality; benches measure the Section IV-H ablation); unqualified
// functions dispatch to the best compiled-in kernel.

#ifndef SOFA_QUANT_LBD_H_
#define SOFA_QUANT_LBD_H_

#include <cstddef>
#include <cstdint>

#include "quant/breakpoint_table.h"
#include "util/aligned.h"

namespace sofa {
namespace quant {

/// One query's lookup table: term(dim, symbol) = weight[dim]·(d·d) with
/// d = mindist(query_values[dim], interval(dim, symbol)), stored at
/// [dim·alphabet + symbol] (16 KiB at word length 16, alphabet 256).
/// Immutable after construction; any number of threads may read it.
class LbdTable {
 public:
  LbdTable() = default;
  LbdTable(const BreakpointTable& table, const float* weights,
           const float* query_values);

  std::size_t word_length() const { return word_length_; }
  std::size_t alphabet() const { return alphabet_; }
  const float* terms() const { return terms_.data(); }

 private:
  std::size_t word_length_ = 0;
  std::size_t alphabet_ = 0;
  AlignedVector<float> terms_;
};

namespace scalar {

/// Squared LBD between a query projection and a full-cardinality word.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// out[i] = squared LBD of the i-th of `count` words stored back to back
/// (word_length() symbols each), looked up in `table`.
void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out);

}  // namespace scalar

#if defined(SOFA_HAVE_AVX2)
namespace avx2 {

/// SIMD LBD (Algorithm 3): per-8-lane gather of interval bounds, branch-free
/// UPPER/LOWER/ZERO masking, weighted FMA accumulation.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// Block kernel: two 8-lane gathers per 16-dimension chunk of a word.
void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out);

}  // namespace avx2
#endif  // SOFA_HAVE_AVX2

#if defined(SOFA_COMPILE_AVX512)
namespace avx512 {

/// 16-lane variant: one iteration covers the default word length l = 16.
/// Compiled separately; used only when CpuSupportsAvx512() holds.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// Block kernel: one 16-lane gather per word and chunk, 16 words reduced
/// together.
void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out);

}  // namespace avx512
#endif  // SOFA_COMPILE_AVX512

/// Best-available squared LBD.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// Best-available block kernel (bit-identical on every tier).
void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out);

/// Squared LBD between a query projection and a *node* summary: per
/// dimension a symbol prefix at `card_bits[dim]` bits; dimensions with
/// cardinality 0 are unconstrained and contribute nothing. Scalar only —
/// node evaluations are rare compared to per-series LBDs.
float NodeLbdSquared(const BreakpointTable& table, const float* weights,
                     const float* query_values, const std::uint8_t* prefixes,
                     const std::uint8_t* card_bits);

}  // namespace quant
}  // namespace sofa

#endif  // SOFA_QUANT_LBD_H_
