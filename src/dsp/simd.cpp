#include "dsp/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "dsp/simd_kernels.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::dsp::simd {
namespace {

// ---- scalar reference table -------------------------------------------------
// These loops are the pre-vectorization kernels verbatim (same expressions,
// same evaluation order): under scalar dispatch every caller that routed its
// inner loop through dsp::simd computes bit-identical results to the code it
// replaced.  Do not "clean up" the arithmetic here -- the PAB_SIMD=off
// bit-identity contract depends on it.

double scalar_sum(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

CovVarRaw scalar_cov_var(const double* x, const double* t, std::size_t n,
                         double x_mean) {
  double cov = 0.0, x_var = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xc = x[i] - x_mean;
    cov += xc * t[i];
    x_var += xc * xc;
  }
  return {cov, x_var};
}

void scalar_axpy(cplx g, const cplx* x, cplx* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += g * x[i];
}

void scalar_magnitude(const cplx* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::abs(x[i]);
}

void scalar_cmul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void scalar_mix_down(const double* x, double w, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = w * static_cast<double>(i);
    out[i] = 2.0 * x[i] * cplx(std::cos(ph), -std::sin(ph));
  }
}

void scalar_mix_up(const cplx* x, double w, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = w * static_cast<double>(i);
    out[i] = x[i].real() * std::cos(ph) - x[i].imag() * std::sin(ph);
  }
}

void scalar_chip_sum_diff(const double* soft, double* sum, double* diff,
                          std::size_t n) {
  for (std::size_t t = 0; t < n; ++t) {
    sum[t] = soft[2 * t] + soft[2 * t + 1];
    diff[t] = soft[2 * t] - soft[2 * t + 1];
  }
}

// The direction is fixed at compile time so the innermost loop carries no
// branch.
template <bool kInverse>
void scalar_butterfly_passes(cplx* data, std::size_t n, const cplx* tw) {
  for (std::size_t half = 1; half < n; half <<= 1) {
    const cplx* stage = tw + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx w = kInverse ? std::conj(stage[k]) : stage[k];
        const cplx u = data[i + k];
        const cplx v = data[i + k + half] * w;
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
  }
}

}  // namespace

void scalar_fft_butterflies(cplx* data, std::size_t n, const cplx* tw,
                            bool inverse) {
  if (inverse)
    scalar_butterfly_passes<true>(data, n, tw);
  else
    scalar_butterfly_passes<false>(data, n, tw);
}

namespace {

constexpr KernelTable kScalarTable = {
    scalar_sum,           scalar_cov_var,         scalar_axpy,
    scalar_magnitude,     scalar_cmul,            scalar_mix_down,
    scalar_mix_up,        scalar_chip_sum_diff,   scalar_fft_butterflies,
};

// ---- dispatch ---------------------------------------------------------------

// The table for `isa`, or the scalar table when this build or host has none.
const KernelTable* table_for(Isa isa) {
  const KernelTable* table = nullptr;
  switch (isa) {
    case Isa::kAvx2:
      table = avx2_kernels();
      break;
    case Isa::kNeon:
      table = neon_kernels();
      break;
    case Isa::kScalar:
      break;
  }
  return table != nullptr ? table : &kScalarTable;
}

Isa detect_isa() {
  if (avx2_kernels() != nullptr) return Isa::kAvx2;
  if (neon_kernels() != nullptr) return Isa::kNeon;
  return Isa::kScalar;
}

struct Dispatch {
  std::atomic<const KernelTable*> table{&kScalarTable};
  std::atomic<int> isa{static_cast<int>(Isa::kScalar)};
  std::atomic<bool> fftconv{true};

  Dispatch() {
    Isa chosen = detect_isa();
    bool conv = true;
    if (const char* env = std::getenv("PAB_SIMD"); env != nullptr) {
      const std::string_view v(env);
      if (v == "off" || v == "0" || v == "scalar" || v == "false") {
        chosen = Isa::kScalar;
        conv = false;  // FFT conv is tolerance-equal, not bit-equal: off too
      } else if (v == "avx2") {
        chosen = avx2_kernels() != nullptr ? Isa::kAvx2 : Isa::kScalar;
      } else if (v == "neon") {
        chosen = neon_kernels() != nullptr ? Isa::kNeon : Isa::kScalar;
      }
      // "on" / "1" / "auto" / anything else: keep auto-detection.
    }
    set(chosen);
    fftconv.store(conv, std::memory_order_relaxed);
    publish();
  }

  void set(Isa i) {
    table.store(table_for(i), std::memory_order_relaxed);
    isa.store(static_cast<int>(i), std::memory_order_relaxed);
  }

  // Register the dispatch metrics so every bench sidecar carries them even
  // when a run never crosses into the FFT path.
  void publish() const {
    auto& reg = obs::MetricRegistry::global();
    reg.gauge("dsp.simd.dispatch")
        .set(static_cast<double>(isa.load(std::memory_order_relaxed)));
    (void)reg.counter("dsp.fftconv.hits");
    (void)reg.counter("dsp.fftconv.blocks");
    (void)reg.counter("dsp.fftconv.blocks_reused");
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

Isa active() {
  return static_cast<Isa>(dispatch().isa.load(std::memory_order_relaxed));
}

bool enabled() { return active() != Isa::kScalar; }

bool fftconv_enabled() {
  return dispatch().fftconv.load(std::memory_order_relaxed);
}

Isa force_isa(Isa isa) {
  Dispatch& d = dispatch();
  const Isa prev = static_cast<Isa>(d.isa.load(std::memory_order_relaxed));
  if (table_for(isa) == &kScalarTable) isa = Isa::kScalar;  // host lacks it
  d.set(isa);
  d.publish();
  return prev;
}

bool force_fftconv(bool on) {
  Dispatch& d = dispatch();
  const bool prev = d.fftconv.load(std::memory_order_relaxed);
  d.fftconv.store(on, std::memory_order_relaxed);
  return prev;
}

// ---- public wrappers --------------------------------------------------------

namespace {
const KernelTable& kernels() {
  return *dispatch().table.load(std::memory_order_relaxed);
}
}  // namespace

double sum(std::span<const double> x) {
  return kernels().sum(x.data(), x.size());
}

CovVar centered_cov_var(std::span<const double> x, std::span<const double> t,
                        double x_mean) {
  require(x.size() == t.size(), "simd::centered_cov_var: size mismatch");
  const CovVarRaw r =
      kernels().centered_cov_var(x.data(), t.data(), x.size(), x_mean);
  return {r.cov, r.var};
}

void axpy(cplx g, std::span<const cplx> x, std::span<cplx> y) {
  require(y.size() >= x.size(), "simd::axpy: output too small");
  kernels().axpy(g, x.data(), y.data(), x.size());
}

void magnitude(std::span<const cplx> x, std::span<double> out) {
  require(out.size() == x.size(), "simd::magnitude: size mismatch");
  kernels().magnitude(x.data(), out.data(), x.size());
}

void cmul(std::span<const cplx> a, std::span<const cplx> b,
          std::span<cplx> out) {
  require(a.size() == b.size() && out.size() == a.size(),
          "simd::cmul: size mismatch");
  kernels().cmul(a.data(), b.data(), out.data(), a.size());
}

void mix_down(std::span<const double> x, double w, std::span<cplx> out) {
  require(out.size() == x.size(), "simd::mix_down: size mismatch");
  kernels().mix_down(x.data(), w, out.data(), x.size());
}

void mix_up(std::span<const cplx> x, double w, std::span<double> out) {
  require(out.size() == x.size(), "simd::mix_up: size mismatch");
  kernels().mix_up(x.data(), w, out.data(), x.size());
}

void fft_butterflies(std::span<cplx> data, std::span<const cplx> tw,
                     bool inverse) {
  const std::size_t n = data.size();
  require(n != 0 && (n & (n - 1)) == 0 && tw.size() == n - 1,
          "simd::fft_butterflies: size must be a power of two with n - 1 "
          "twiddles");
  kernels().fft_butterflies(data.data(), n, tw.data(), inverse);
}

void chip_sum_diff(std::span<const double> soft, std::span<double> sum,
                   std::span<double> diff) {
  require(sum.size() == diff.size() && soft.size() == 2 * sum.size(),
          "simd::chip_sum_diff: size mismatch");
  kernels().chip_sum_diff(soft.data(), sum.data(), diff.data(), sum.size());
}

}  // namespace pab::dsp::simd
