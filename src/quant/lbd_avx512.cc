// AVX-512 implementations of the lower-bound kernels.
//
// LbdSquared is the paper's SIMD lower bound: one 16-lane iteration
// covers the default word length l = 16 entirely — gather both interval
// bounds, mask-select the UPPER/LOWER branches with native predicate
// masks, and reduce.
//
// LbdSquaredBlock reads a query's LbdTable instead: one 16-lane gather
// fetches a 16-dimension chunk's finished terms per word, and the chunks
// of 16 words are reduced together by a shuffle tree that adds exactly the
// pairs _mm512_reduce_add_ps adds, so every word's sum is bit-identical to
// the scalar and AVX2 tiers (and, at l = 16, to LbdSquared above).
//
// Compiled with per-file -mavx512* flags; reached only via the runtime
// dispatch in lbd.cc.

#include "quant/lbd.h"

#if defined(SOFA_COMPILE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace sofa {
namespace quant {
namespace avx512 {
namespace {

// Weighted squared mindist of one 16-dim chunk starting at `dim`.
inline __m512 ChunkTerm(const float* lower, const float* upper,
                        const float* weights, const float* query_values,
                        const std::uint8_t* word, std::size_t dim,
                        std::size_t alphabet) {
  const __m128i symbols16 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(word + dim));
  const __m512i symbols = _mm512_cvtepu8_epi32(symbols16);
  alignas(64) std::int32_t base_lanes[16];
  for (int lane = 0; lane < 16; ++lane) {
    base_lanes[lane] = static_cast<std::int32_t>((dim + lane) * alphabet);
  }
  const __m512i idx = _mm512_add_epi32(
      _mm512_load_si512(reinterpret_cast<const void*>(base_lanes)), symbols);

  const __m512 q = _mm512_loadu_ps(query_values + dim);
  const __m512 lo = _mm512_i32gather_ps(idx, lower, 4);
  const __m512 hi = _mm512_i32gather_ps(idx, upper, 4);

  const __mmask16 below = _mm512_cmp_ps_mask(q, lo, _CMP_LT_OQ);
  const __mmask16 above = _mm512_cmp_ps_mask(q, hi, _CMP_GT_OQ);
  __m512 d = _mm512_setzero_ps();
  d = _mm512_mask_mov_ps(d, below, _mm512_sub_ps(lo, q));
  d = _mm512_mask_mov_ps(d, above, _mm512_sub_ps(q, hi));

  const __m512 w = _mm512_loadu_ps(weights + dim);
  return _mm512_mul_ps(w, _mm512_mul_ps(d, d));
}

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

// Lane w of the result is _mm512_reduce_add_ps(v[w]), summed in the same
// pairs: each step adds the halves that reduction adds next (lanes i and
// i+8, j and j+4, 0 and 2 / 1 and 3, then the two halves), two vectors'
// worth per instruction, halving the vector count until one holds all 16
// sums. v is clobbered.
inline __m512 ReduceTransposed(__m512* v) {
  // Lanes i + i+8: v[2m], v[2m+1] → s8 of both words, 8 lanes each.
  for (int m = 0; m < 8; ++m) {
    v[m] = _mm512_add_ps(
        _mm512_shuffle_f32x4(v[2 * m], v[2 * m + 1], _MM_SHUFFLE(1, 0, 1, 0)),
        _mm512_shuffle_f32x4(v[2 * m], v[2 * m + 1], _MM_SHUFFLE(3, 2, 3, 2)));
  }
  // Lanes j + j+4: 128-bit lane k of v[n] → s4 of word 4n + k.
  for (int n = 0; n < 4; ++n) {
    v[n] = _mm512_add_ps(
        _mm512_shuffle_f32x4(v[2 * n], v[2 * n + 1], _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_f32x4(v[2 * n], v[2 * n + 1], _MM_SHUFFLE(3, 1, 3, 1)));
  }
  // Elements 0 + 2 and 1 + 3: 128-bit lane k of v[p] → s2 of words 8p + k
  // (elements 0–1) and 8p + 4 + k (elements 2–3).
  for (int p = 0; p < 2; ++p) {
    v[p] = _mm512_add_ps(
        _mm512_shuffle_ps(v[2 * p], v[2 * p + 1], _MM_SHUFFLE(1, 0, 1, 0)),
        _mm512_shuffle_ps(v[2 * p], v[2 * p + 1], _MM_SHUFFLE(3, 2, 3, 2)));
  }
  // The two halves: element 4k + j holds word 4j + k.
  const __m512 sums = _mm512_add_ps(
      _mm512_shuffle_ps(v[0], v[1], _MM_SHUFFLE(2, 0, 2, 0)),
      _mm512_shuffle_ps(v[0], v[1], _MM_SHUFFLE(3, 1, 3, 1)));
  // Back to word order (the 4×4 transpose is its own inverse).
  return _mm512_permutexvar_ps(
      _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15),
      sums);
}

}  // namespace

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  __m512 acc = _mm512_setzero_ps();
  std::size_t dim = 0;
  for (; dim + 16 <= l; dim += 16) {
    acc = _mm512_add_ps(acc, ChunkTerm(lower, upper, weights, query_values,
                                       word, dim, alphabet));
  }
  return _mm512_reduce_add_ps(acc) +
         ScalarTail(table, weights, query_values, word, dim);
}

void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* terms = table.terms();
  const __m512i lane_base = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(alphabet)));
  for (std::size_t first = 0; first < count; first += 16) {
    const std::size_t block = std::min<std::size_t>(16, count - first);
    const std::uint8_t* block_words = words + first * l;
    __m512 sums = _mm512_setzero_ps();
    for (std::size_t chunk = 0; chunk < l; chunk += 16) {
      const std::size_t dims = std::min<std::size_t>(16, l - chunk);
      const __mmask16 live = static_cast<__mmask16>((1u << dims) - 1);
      const __m512i row = _mm512_add_epi32(
          _mm512_set1_epi32(static_cast<int>(chunk * alphabet)), lane_base);
      __m512 v[16] = {};
      for (std::size_t w = 0; w < 16; ++w) {
        if (w >= block) {
          v[w] = _mm512_setzero_ps();
          continue;
        }
        // A short last chunk is copied out so no load reads past the
        // word; its missing lanes gather nothing and stay 0.
        alignas(16) std::uint8_t padded[16] = {};
        const std::uint8_t* symbols = block_words + w * l + chunk;
        if (dims < 16) {
          std::memcpy(padded, symbols, dims);
          symbols = padded;
        }
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(symbols));
        v[w] = _mm512_mask_i32gather_ps(
            _mm512_setzero_ps(), live,
            _mm512_add_epi32(row, _mm512_cvtepu8_epi32(bytes)), terms, 4);
      }
      sums = _mm512_add_ps(sums, ReduceTransposed(v));
    }
    _mm512_mask_storeu_ps(out + first,
                          static_cast<__mmask16>((1u << block) - 1), sums);
  }
}

}  // namespace avx512
}  // namespace quant
}  // namespace sofa

#endif  // SOFA_COMPILE_AVX512
