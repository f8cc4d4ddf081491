// AVX2 implementations of the lower-bound kernels.
//
// LbdSquared is the paper's SIMD lower bound (Section IV-H, Algorithm 3
// and Figure 6). Per 8-dimension chunk:
//   1. "Gather bound": the symbols of the candidate word index two flat
//      [dim][symbol] tables of interval bounds (one vgatherdps each).
//   2. "Caldist": distances to the LOWER and UPPER breakpoints.
//   3. "Genmask": comparison masks for the three branches (query below the
//      interval / above / inside). The ZERO branch needs no explicit mask —
//      masking the two non-zero branches and OR-ing them leaves in-interval
//      lanes at 0, exactly Eq. 2.
//   4. Weighted FMA accumulation and a horizontal sum.
//
// LbdSquaredBlock reads a query's LbdTable instead: two 8-lane gathers
// fetch a 16-dimension chunk's finished terms, which are summed in the
// pairing lbd.h fixes for every tier.

#include "quant/lbd.h"

#if defined(SOFA_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace sofa {
namespace quant {
namespace avx2 {
namespace {

inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_hadd_ps(sum, sum);
  sum = _mm_hadd_ps(sum, sum);
  return _mm_cvtss_f32(sum);
}

// Weighted squared mindist of one 8-dim chunk starting at `dim`.
inline __m256 ChunkTerm(const float* lower, const float* upper,
                        const float* weights, const float* query_values,
                        const std::uint8_t* word, std::size_t dim,
                        std::size_t alphabet) {
  // Indices: (dim+i)*alphabet + word[dim+i].
  const __m128i symbols8 = _mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(word + dim));
  const __m256i symbols = _mm256_cvtepu8_epi32(symbols8);
  const __m256i lane_base = _mm256_setr_epi32(
      0, static_cast<int>(alphabet), static_cast<int>(2 * alphabet),
      static_cast<int>(3 * alphabet), static_cast<int>(4 * alphabet),
      static_cast<int>(5 * alphabet), static_cast<int>(6 * alphabet),
      static_cast<int>(7 * alphabet));
  const __m256i base =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(dim * alphabet)),
                       lane_base);
  const __m256i idx = _mm256_add_epi32(base, symbols);

  const __m256 q = _mm256_loadu_ps(query_values + dim);
  const __m256 lo = _mm256_i32gather_ps(lower, idx, 4);
  const __m256 hi = _mm256_i32gather_ps(upper, idx, 4);

  // Caldist + Genmask + masked combine (Algorithm 3 lines 6-8).
  const __m256 dist_lower = _mm256_sub_ps(lo, q);   // >0 iff q below interval
  const __m256 dist_upper = _mm256_sub_ps(q, hi);   // >0 iff q above interval
  const __m256 mask_lower = _mm256_cmp_ps(q, lo, _CMP_LT_OQ);
  const __m256 mask_upper = _mm256_cmp_ps(q, hi, _CMP_GT_OQ);
  const __m256 d = _mm256_or_ps(_mm256_and_ps(mask_lower, dist_lower),
                                _mm256_and_ps(mask_upper, dist_upper));

  const __m256 w = _mm256_loadu_ps(weights + dim);
  return _mm256_mul_ps(w, _mm256_mul_ps(d, d));
}

// Scalar handling of the last (l mod 8) dimensions.
inline float ScalarTail(const BreakpointTable& table, const float* weights,
                        const float* query_values, const std::uint8_t* word,
                        std::size_t dim) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  float sum = 0.0f;
  for (; dim < l; ++dim) {
    const std::size_t idx = dim * alphabet + word[dim];
    const float q = query_values[dim];
    float d = 0.0f;
    if (q < lower[idx]) {
      d = lower[idx] - q;
    } else if (q > upper[idx]) {
      d = q - upper[idx];
    }
    sum += weights[dim] * d * d;
  }
  return sum;
}

// _mm512_reduce_add_ps's pairing of one 16-dim chunk held as two 8-lane
// halves (dims 0–7 and 8–15): lanes i and i+8, then j and j+4, then 0 and
// 2 / 1 and 3, then the two halves.
inline float PairwiseSum16(__m256 lo, __m256 hi) {
  const __m256 s8 = _mm256_add_ps(lo, hi);
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                               _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
}

}  // namespace

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  __m256 acc = _mm256_setzero_ps();
  std::size_t dim = 0;
  for (; dim + 8 <= l; dim += 8) {
    acc = _mm256_add_ps(
        acc, ChunkTerm(lower, upper, weights, query_values, word, dim,
                       alphabet));
  }
  return HorizontalSum(acc) +
         ScalarTail(table, weights, query_values, word, dim);
}

void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* terms = table.terms();
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lane_base = _mm256_mullo_epi32(
      lanes, _mm256_set1_epi32(static_cast<int>(alphabet)));
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* word = words + i * l;
    float sum = 0.0f;
    for (std::size_t chunk = 0; chunk < l; chunk += 16) {
      const std::size_t dims = std::min<std::size_t>(16, l - chunk);
      // A short last chunk is copied out so no load reads past the word;
      // its missing lanes gather nothing and stay 0.
      alignas(16) std::uint8_t padded[16] = {};
      const std::uint8_t* symbols = word + chunk;
      if (dims < 16) {
        std::memcpy(padded, symbols, dims);
        symbols = padded;
      }
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(symbols));
      __m256 half[2] = {};
      for (int h = 0; h < 2; ++h) {
        const __m256i first_row = _mm256_set1_epi32(
            static_cast<int>((chunk + 8 * h) * alphabet));
        const __m256i idx = _mm256_add_epi32(
            _mm256_add_epi32(first_row, lane_base),
            _mm256_cvtepu8_epi32(h == 0 ? bytes : _mm_srli_si128(bytes, 8)));
        const __m256i live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(dims) - 8 * h), lanes);
        half[h] = _mm256_mask_i32gather_ps(_mm256_setzero_ps(), terms, idx,
                                           _mm256_castsi256_ps(live), 4);
      }
      sum += PairwiseSum16(half[0], half[1]);
    }
    out[i] = sum;
  }
}

}  // namespace avx2
}  // namespace quant
}  // namespace sofa

#endif  // SOFA_HAVE_AVX2
