#include "quant/lbd.h"

#include <algorithm>

#include "core/distance.h"  // CpuSupportsAvx512

namespace sofa {
namespace quant {

LbdTable::LbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values)
    : word_length_(table.word_length()),
      alphabet_(table.alphabet()),
      terms_(table.word_length() * table.alphabet()) {
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  for (std::size_t dim = 0; dim < word_length_; ++dim) {
    const float q = query_values[dim];
    const float w = weights[dim];
    const std::size_t row = dim * alphabet_;
    for (std::size_t symbol = 0; symbol < alphabet_; ++symbol) {
      const std::size_t idx = row + symbol;
      float d = 0.0f;
      if (q < lower[idx]) {
        d = lower[idx] - q;
      } else if (q > upper[idx]) {
        d = q - upper[idx];
      }
      terms_[idx] = w * (d * d);
    }
  }
}

namespace scalar {

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  float sum = 0.0f;
  for (std::size_t dim = 0; dim < l; ++dim) {
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

void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* terms = table.terms();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* word = words + i * l;
    float sum = 0.0f;
    for (std::size_t chunk = 0; chunk < l; chunk += 16) {
      // The chunk's 16 terms, zero past the word's end, summed in
      // _mm512_reduce_add_ps's pairing.
      float t[16] = {};
      const std::size_t dims = std::min<std::size_t>(16, l - chunk);
      for (std::size_t lane = 0; lane < dims; ++lane) {
        const std::size_t dim = chunk + lane;
        t[lane] = terms[dim * alphabet + word[dim]];
      }
      float s8[8] = {};
      for (int j = 0; j < 8; ++j) {
        s8[j] = t[j] + t[j + 8];
      }
      const float s4[4] = {s8[0] + s8[4], s8[1] + s8[5], s8[2] + s8[6],
                           s8[3] + s8[7]};
      sum += (s4[0] + s4[2]) + (s4[1] + s4[3]);
    }
    out[i] = sum;
  }
}

}  // namespace scalar

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    return avx512::LbdSquared(table, weights, query_values, word);
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  return avx2::LbdSquared(table, weights, query_values, word);
#else
  return scalar::LbdSquared(table, weights, query_values, word);
#endif
}

void LbdSquaredBlock(const LbdTable& table, const std::uint8_t* words,
                     std::size_t count, float* out) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    avx512::LbdSquaredBlock(table, words, count, out);
    return;
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  avx2::LbdSquaredBlock(table, words, count, out);
#else
  scalar::LbdSquaredBlock(table, words, count, out);
#endif
}

float NodeLbdSquared(const BreakpointTable& table, const float* weights,
                     const float* query_values, const std::uint8_t* prefixes,
                     const std::uint8_t* card_bits) {
  const std::size_t l = table.word_length();
  float sum = 0.0f;
  for (std::size_t dim = 0; dim < l; ++dim) {
    if (card_bits[dim] == 0) {
      continue;  // dimension not yet constrained at this node
    }
    const float d = table.MinDistPrefix(dim, prefixes[dim], card_bits[dim],
                                        query_values[dim]);
    sum += weights[dim] * d * d;
  }
  return sum;
}

}  // namespace quant
}  // namespace sofa
