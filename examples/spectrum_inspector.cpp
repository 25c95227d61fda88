// Capture inspection: ASCII spectrogram of a two-channel backscatter session.
//
// The time-frequency view shows what the paper's Figure 2 shows in time only:
// both downlink carriers switching on, and each recto-piezo's backscatter
// sidebands around its own channel.  Works on any 16-bit mono WAV too --
// point it at a recording:  ./spectrum_inspector capture.wav
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/link.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/wav.hpp"
#include "sim/scenario.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

dsp::Signal synthesize_session() {
  core::SimConfig sc = sim::Scenario::pool_a().medium;
  core::Placement pl;
  pl.projector = {1.5, 1.5, 0.65};
  pl.hydrophone = {1.5, 2.5, 0.65};
  pl.node = {1.0, 2.0, 0.65};

  // A dual-carrier capture: node 1's uplink from the link simulator plus a
  // CW at 18 kHz.
  core::LinkSimulator sim(sc, pl);
  const auto proj = core::Projector::ideal(300.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(3);
  const auto bits = rng.bits(192);
  sim::Waveform cfg;
  cfg.bitrate = 500.0;
  cfg.node_start_s = 0.15;
  Rng noise(sc.seed);
  auto run = sim.run_uplink(proj, fe, bits, cfg, noise);

  // Add the second downlink carrier, switched on halfway through.
  const double fs = run.hydrophone_v.sample_rate;
  const std::size_t half = run.hydrophone_v.size() / 2;
  for (std::size_t i = half; i < run.hydrophone_v.size(); ++i) {
    const double ph = kTwoPi * 18000.0 * static_cast<double>(i) / fs;
    run.hydrophone_v.samples[i] += 0.15 * std::sin(ph) * 1e-3 * 300.0;
  }
  return run.hydrophone_v;
}

void render(const dsp::Signal& capture) {
  dsp::SpectrogramConfig cfg;
  cfg.fft_size = 2048;
  cfg.hop = 1024;
  const auto spec = dsp::compute_spectrogram(capture, cfg);
  if (spec.frames() == 0) {
    std::printf("capture too short for a spectrogram\n");
    return;
  }

  // Rows: 10-20 kHz in 0.25 kHz bins; columns: frames.
  const char* shades = " .:-=+*#%@";
  std::printf("\nASCII spectrogram (10-20 kHz band; time ->)\n\n");
  double global_max = 1e-300;
  for (const auto& frame : spec.magnitude)
    for (std::size_t b = 0; b < frame.size(); ++b)
      if (spec.frequency_hz[b] >= 10000.0 && spec.frequency_hz[b] <= 20000.0)
        global_max = std::max(global_max, frame[b]);

  for (double f_hi = 20000.0; f_hi > 10000.0; f_hi -= 500.0) {
    std::printf("%5.1fk |", f_hi / 1000.0);
    const std::size_t max_cols = 96;
    const std::size_t stride = std::max<std::size_t>(1, spec.frames() / max_cols);
    for (std::size_t fr = 0; fr < spec.frames(); fr += stride) {
      double acc = 0.0;
      std::size_t n = 0;
      for (std::size_t b = 0; b < spec.bins(); ++b) {
        if (spec.frequency_hz[b] < f_hi - 500.0 || spec.frequency_hz[b] >= f_hi)
          continue;
        acc += spec.magnitude[fr][b];
        ++n;
      }
      const double v = n ? acc / static_cast<double>(n) / global_max : 0.0;
      const double db = v > 1e-6 ? 20.0 * std::log10(v) : -120.0;
      const int idx = static_cast<int>((db + 60.0) / 60.0 * 9.0);
      std::printf("%c", shades[std::clamp(idx, 0, 9)]);
    }
    std::printf("\n");
  }
  std::printf("        carrier(s) + backscatter sidebands; brightness = dB\n");

  const auto track = dsp::dominant_frequency_track(spec);
  std::printf("\ndominant carrier: %.1f kHz (start) -> %.1f kHz (end)\n",
              track.front() / 1000.0, track.back() / 1000.0);
  const auto p15 = dsp::band_power_track(spec, 14500.0, 15500.0);
  const auto p18 = dsp::band_power_track(spec, 17500.0, 18500.0);
  std::printf("15 kHz channel power rises at frame 0; 18 kHz rises at frame %zu\n",
              [&] {
                for (std::size_t i = 0; i < p18.size(); ++i)
                  if (p18[i] > 0.2 * p15[i]) return i;
                return p18.size();
              }());
}

}  // namespace

int main(int argc, char** argv) {
  dsp::Signal capture;
  if (argc > 1) {
    auto loaded = dsp::read_wav(argv[1]);
    if (!loaded.ok()) {
      std::printf("cannot read %s: %s\n", argv[1], loaded.error().message().c_str());
      return 1;
    }
    capture = std::move(loaded).value();
    std::printf("loaded %s: %.2f s @ %.0f Hz\n", argv[1], capture.duration(),
                capture.sample_rate);
  } else {
    capture = synthesize_session();
    std::printf("synthesized a dual-carrier backscatter session (%.2f s)\n",
                capture.duration());
  }
  render(capture);
  return 0;
}
