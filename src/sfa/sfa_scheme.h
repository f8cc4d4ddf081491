// SFA — Symbolic Fourier Approximation (paper Section IV-E) as a
// SummaryScheme.
//
// Projection: the series' DFT is taken (1/√n normalization), and
// word_length() of its real/imaginary coefficient values are extracted —
// either the lowest frequencies (classic SFA low-pass) or, as SOFA does,
// the values with the highest variance over a training sample. Quantization
// uses per-value learned (MCB) breakpoints. LBD weight per value: 2 for
// conjugate-paired coefficients, 1 for DC/Nyquist — the Parseval/Rafiei
// bound of Eq. 1.
//
// Schemes are built by TrainSfa (mcb.h) or directly from an SfaSpec.

#ifndef SOFA_SFA_SFA_SCHEME_H_
#define SOFA_SFA_SFA_SCHEME_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dft/real_dft.h"
#include "quant/summary_scheme.h"

namespace sofa {
namespace sfa {

/// One selected DFT value: coefficient index and real/imaginary part.
struct ValueRef {
  std::uint16_t coeff = 0;
  bool imag = false;

  bool operator==(const ValueRef& other) const {
    return coeff == other.coeff && imag == other.imag;
  }
};

/// Complete description of a trained SFA summarization.
struct SfaSpec {
  std::size_t series_length = 0;
  std::size_t alphabet = 256;
  std::string name = "SFA";
  /// The word_length selected values, in word order (the trainer orders
  /// them by descending variance, so the tree's root key, built from the
  /// first dimensions, splits on the most discriminative values).
  std::vector<ValueRef> selected;
  /// Learned interior edges per selected value (alphabet−1 each).
  std::vector<std::vector<float>> edges;
};

/// Learned Fourier-domain summarization.
class SfaScheme : public quant::SummaryScheme {
 public:
  explicit SfaScheme(const SfaSpec& spec);

  std::string name() const override { return name_; }

  std::size_t series_length() const override { return series_length_; }

  std::unique_ptr<Scratch> NewScratch() const override;

  using quant::SummaryScheme::Project;
  void Project(const float* series, float* values_out,
               Scratch* scratch) const override;

  /// The selected DFT values in evaluation order.
  const std::vector<ValueRef>& selected_values() const { return selected_; }

  /// Mean index of the selected Fourier coefficients — the Fig. 13
  /// statistic correlating frequency content with speedup.
  double MeanSelectedCoefficientIndex() const;

  /// The underlying DFT plan (shared, thread-safe).
  const dft::RealDftPlan& dft_plan() const { return plan_; }

 private:
  class SfaScratch;

  std::string name_;
  std::size_t series_length_;
  dft::RealDftPlan plan_;
  std::vector<ValueRef> selected_;
};

}  // namespace sfa
}  // namespace sofa

#endif  // SOFA_SFA_SFA_SCHEME_H_
