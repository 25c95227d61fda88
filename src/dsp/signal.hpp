// Sample-domain signal containers.
//
// The simulator works in the passband: real-valued pressure/voltage waveforms
// sampled at `sample_rate` (typically 96 kHz for 12-20 kHz acoustic carriers).
// Complex baseband appears after down-conversion in the receiver.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace pab::dsp {

using cplx = std::complex<double>;

// A real passband waveform with an associated sample rate.
struct Signal {
  std::vector<double> samples;
  double sample_rate = 0.0;  // [Hz]

  Signal() = default;
  Signal(std::vector<double> s, double fs) : samples(std::move(s)), sample_rate(fs) {}

  [[nodiscard]] std::size_t size() const { return samples.size(); }
  [[nodiscard]] bool empty() const { return samples.empty(); }
  [[nodiscard]] double duration() const {
    return sample_rate > 0.0 ? static_cast<double>(samples.size()) / sample_rate : 0.0;
  }
  [[nodiscard]] double& operator[](std::size_t i) { return samples[i]; }
  [[nodiscard]] double operator[](std::size_t i) const { return samples[i]; }

  // Element-wise addition of another signal at the same rate; the shorter
  // signal is treated as zero-padded.
  void accumulate(const Signal& other) {
    require(sample_rate == other.sample_rate, "Signal::accumulate: rate mismatch");
    if (other.samples.size() > samples.size()) samples.resize(other.samples.size(), 0.0);
    for (std::size_t i = 0; i < other.samples.size(); ++i)
      samples[i] += other.samples[i];
  }

  void scale(double k) {
    for (auto& s : samples) s *= k;
  }
};

// A complex baseband waveform (after down-conversion).
struct BasebandSignal {
  std::vector<cplx> samples;
  double sample_rate = 0.0;  // [Hz]
  double carrier_hz = 0.0;   // carrier this baseband was mixed down from

  [[nodiscard]] std::size_t size() const { return samples.size(); }
  [[nodiscard]] bool empty() const { return samples.empty(); }

  // Element-wise addition (zero-padded to the longer signal); rates and
  // carriers must match.
  void accumulate(const BasebandSignal& other) {
    require(sample_rate == other.sample_rate && carrier_hz == other.carrier_hz,
            "BasebandSignal::accumulate: rate or carrier mismatch");
    if (other.samples.size() > samples.size()) samples.resize(other.samples.size());
    for (std::size_t i = 0; i < other.samples.size(); ++i)
      samples[i] += other.samples[i];
  }
};

// Non-owning view of a real passband waveform, typically arena-backed.
// The span aliases storage owned elsewhere (a dsp::Arena frame or a
// std::vector); views are cheap to copy and never allocate.
struct SignalView {
  std::span<double> samples;
  double sample_rate = 0.0;  // [Hz]

  SignalView() = default;
  SignalView(std::span<double> s, double fs) : samples(s), sample_rate(fs) {}
  // A mutable Signal is viewable in place.
  explicit SignalView(Signal& s) : samples(s.samples), sample_rate(s.sample_rate) {}

  [[nodiscard]] std::size_t size() const { return samples.size(); }
  [[nodiscard]] bool empty() const { return samples.empty(); }
  [[nodiscard]] double duration() const {
    return sample_rate > 0.0 ? static_cast<double>(samples.size()) / sample_rate : 0.0;
  }
  [[nodiscard]] double& operator[](std::size_t i) const { return samples[i]; }
};

// Non-owning view of a complex baseband waveform (after down-conversion).
struct CplxView {
  std::span<cplx> samples;
  double sample_rate = 0.0;  // [Hz]
  double carrier_hz = 0.0;   // carrier this baseband was mixed down from

  CplxView() = default;
  CplxView(std::span<cplx> s, double fs, double fc)
      : samples(s), sample_rate(fs), carrier_hz(fc) {}
  explicit CplxView(BasebandSignal& s)
      : samples(s.samples), sample_rate(s.sample_rate), carrier_hz(s.carrier_hz) {}

  [[nodiscard]] std::size_t size() const { return samples.size(); }
  [[nodiscard]] bool empty() const { return samples.empty(); }
  [[nodiscard]] cplx& operator[](std::size_t i) const { return samples[i]; }

  // Truncate the view to its first `n` samples (used after in-place
  // decimation, which compacts the signal toward the front).
  [[nodiscard]] CplxView first(std::size_t n) const {
    return CplxView(samples.first(n), sample_rate, carrier_hz);
  }
};

}  // namespace pab::dsp
