// AVX-512 implementations of the Euclidean distance kernels (16 float
// lanes; the paper's "up to 512 bits … speedups of up to 16 times").
//
// Compiled with per-file -mavx512* flags and reached only through the
// runtime CPU-feature dispatch in distance.cc, so the library stays safe
// on CPUs without AVX-512.

#include "core/distance.h"

#if defined(SOFA_COMPILE_AVX512)

// GCC's avx512fintrin.h self-initializes the results of its
// _mm512_undefined_* helpers (`__m512 __Y = __Y;`), which -Wall reports as
// an uninitialized read wherever an intrinsic built on them is inlined.
// The warnings are silenced for that system header alone, so this file's
// own code still warns. (clang does not know the warning groups.)
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace sofa {
namespace avx512 {

float SquaredEuclidean(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, a + i),
                                   _mm512_maskz_loadu_ps(tail, b + i));
    acc1 = _mm512_fmadd_ps(d, d, acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float SquaredEuclideanEarlyAbandon(const float* a, const float* b,
                                   std::size_t n, float bound) {
  float sum = 0.0f;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    sum += _mm512_reduce_add_ps(_mm512_mul_ps(d, d));
    if (sum > bound) {
      return sum;
    }
  }
  if (i < n) {
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, a + i),
                                   _mm512_maskz_loadu_ps(tail, b + i));
    sum += _mm512_reduce_add_ps(_mm512_mul_ps(d, d));
  }
  return sum;
}

float DotProduct(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < n) {
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (n - i)) - 1u);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(tail, a + i),
                           _mm512_maskz_loadu_ps(tail, b + i), acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float SquaredNorm(const float* a, std::size_t n) {
  return DotProduct(a, a, n);
}

}  // namespace avx512
}  // namespace sofa

#endif  // SOFA_COMPILE_AVX512
