// Golden regressions for the phy::Scheme seam.
//
// The seam's contract has two halves, both pinned here:
//   1. kFm0 is pinned to absolute goldens -- the switch stream equals a
//      test-local FM0 expansion of [preamble + data], one capture decodes to
//      exact recorded doubles (the legacy receiver's output, not approximately
//      equal), and Session trials are bit-identical at any thread count
//      across a fig7-style SNR sweep.  This is what lets new schemes land
//      without drifting fig7/fig8.
//   2. The FSK schemes actually work: clean synthetic envelopes and the full
//      waterfilled link both round-trip, and every decode publishes a
//      consistent LinkQuality trio.
#include <gtest/gtest.h>

#include <cmath>

#include "core/link.hpp"
#include "dsp/simd.hpp"
#include "phy/fsk.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/batch.hpp"

namespace pab {
namespace {

core::Projector standard_projector(double drive_v = 50.0) {
  return core::Projector(piezo::make_projector_transducer(), drive_v);
}

// --- scheme identity / descriptor table --------------------------------------

TEST(SchemeDescriptor, TableIsConsistent) {
  for (std::size_t i = 0; i < phy::kSchemeCount; ++i) {
    const auto id = static_cast<phy::SchemeId>(i);
    const auto& d = phy::scheme_descriptor(id);
    EXPECT_EQ(d.id, id);
    EXPECT_GE(d.bits_per_symbol, 1);
    EXPECT_GT(d.bandwidth_factor, 0.0);
    EXPECT_GT(d.switch_rate_factor, 0.0);
    EXPECT_GT(d.occupied_bandwidth_hz(1000.0), 0.0);
  }
  EXPECT_EQ(phy::to_string(phy::SchemeId::kFm0), "fm0");
  EXPECT_EQ(phy::to_string(phy::SchemeId::kFsk2), "fsk2");
  EXPECT_EQ(phy::to_string(phy::SchemeId::kFsk4), "fsk4");
  // The cache-key invariant everything rests on: FM0's effective bitrate is
  // the identity, so default-scheme modulation cache keys are unchanged.
  const auto& fm0 = phy::scheme_descriptor(phy::SchemeId::kFm0);
  for (const double r : {250.0, 1000.0, 2800.0, 5000.0})
    EXPECT_EQ(fm0.effective_bitrate(r), r);
  // Denser schemes pay a higher decode floor (the ladder's ordering premise).
  EXPECT_LT(fm0.decode_floor_db,
            phy::scheme_descriptor(phy::SchemeId::kFsk2).decode_floor_db);
  EXPECT_LT(phy::scheme_descriptor(phy::SchemeId::kFsk2).decode_floor_db,
            phy::scheme_descriptor(phy::SchemeId::kFsk4).decode_floor_db);
}

// --- golden: FM0 through the seam == legacy FM0 ------------------------------

// Reference FM0 expansion, written independently of the modulator: chip c of
// fm0_encode([preamble + data]) from level -1 holds samples [c*spc, (c+1)*spc).
std::vector<phy::SwitchState> reference_fm0_waveform(const Bits& data,
                                                     double bitrate, double fs) {
  Bits full(phy::uplink_preamble_bits());
  full.insert(full.end(), data.begin(), data.end());
  const phy::Chips chips = phy::fm0_encode(full, /*initial_level=*/-1);
  const double spc = fs / (2.0 * bitrate);
  std::vector<phy::SwitchState> out;
  for (std::size_t c = 0; c < chips.size(); ++c)
    while (static_cast<double>(out.size()) < static_cast<double>(c + 1) * spc)
      out.push_back(chips[c] > 0 ? phy::SwitchState::kReflective
                                 : phy::SwitchState::kAbsorptive);
  return out;
}

TEST(SchemeSeamGolden, Fm0WaveformMatchesLegacyExactly) {
  Rng rng(41);
  for (const double bitrate : {250.0, 1000.0, 2800.0, 5000.0}) {
    const double fs = 96000.0;
    const auto bits = rng.bits(64);
    const auto want = reference_fm0_waveform(bits, bitrate, fs);

    dsp::Arena arena;
    std::vector<phy::SwitchState> seam(
        phy::scheme_waveform_length(phy::SchemeId::kFm0, bits.size(), bitrate, fs));
    phy::scheme_waveform_into(phy::SchemeId::kFm0, bits, bitrate, fs, seam,
                              arena);

    ASSERT_EQ(seam.size(), want.size()) << "bitrate " << bitrate;
    for (std::size_t i = 0; i < seam.size(); ++i)
      ASSERT_EQ(seam[i], want[i]) << "bitrate " << bitrate << " sample " << i;
  }
}

// Exact field-wise DemodResult comparison (no operator== on purpose: a new
// field must show up here and be pinned).
void expect_identical(const phy::DemodResult& got, const phy::DemodResult& want) {
  EXPECT_EQ(got.bits, want.bits);
  EXPECT_EQ(got.start_sample, want.start_sample);
  EXPECT_EQ(got.channel_amp, want.channel_amp);
  EXPECT_EQ(got.mid_level, want.mid_level);
  EXPECT_EQ(got.snr_db, want.snr_db);
  EXPECT_EQ(got.preamble_corr, want.preamble_corr);
  EXPECT_EQ(got.quality.evm_rms, want.quality.evm_rms);
  EXPECT_EQ(got.quality.mer_db, want.quality.mer_db);
  EXPECT_EQ(got.quality.cn0_dbhz, want.quality.cn0_dbhz);
}

TEST(SchemeSeamGolden, Fm0DemodulatorMatchesLegacyExactly) {
  // The goldens are the legacy receiver's doubles under the scalar kernels
  // (AVX2 sums in another order, so the last bits differ there).
  const dsp::simd::DispatchGuard scalar(dsp::simd::Isa::kScalar,
                                        /*fftconv=*/false);
  core::LinkSimulator sim(sim::Scenario::pool_a().medium, core::Placement{});
  const auto proj = standard_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(43);
  const auto bits = rng.bits(64);
  sim::Waveform cfg;  // default scheme = kFm0

  Rng noise_a(7);
  const auto run = sim.run_uplink(proj, fe, bits, cfg, noise_a);

  phy::DemodResult golden;
  golden.bits = bits;  // the capture decodes error-free
  golden.start_sample = 4888;
  golden.channel_amp = 0x1.1662fed80acp-13;
  golden.mid_level = 0x1.1c03d2fd326fcp-2;
  golden.snr_db = 0x1.c7b20777dd51cp+2;
  golden.preamble_corr = 0x1.9dd07947f5fbdp-1;
  golden.quality.evm_rms = 0x1.c31d9bfb4cd7bp-2;
  golden.quality.mer_db = 0x1.c7b20777dd51cp+2;
  golden.quality.cn0_dbhz = 0x1.410b5913c302cp+5;

  phy::DemodConfig dc;
  dc.carrier_hz = cfg.carrier_hz;
  dc.bitrate = cfg.bitrate;
  dc.sample_rate = sim.config().sample_rate;
  const phy::SchemeDemodulator seam(
      phy::SchemeConfig{phy::SchemeId::kFm0, dc});
  dsp::Arena arena;
  phy::DemodResult got;
  const auto ok = seam.demodulate_into(run.hydrophone_v.samples,
                                       run.hydrophone_v.sample_rate,
                                       bits.size(), arena, got);
  ASSERT_TRUE(ok.ok()) << ok.error().message();
  expect_identical(got, golden);

  // And the full seam pipeline (run_and_decode with the same noise stream)
  // reproduces the same capture and decode end to end.
  Rng noise_b(7);
  const auto rd = sim.run_and_decode(proj, fe, bits, cfg, noise_b);
  ASSERT_TRUE(rd.ok()) << rd.error().message();
  ASSERT_EQ(rd.value().run.hydrophone_v.samples, run.hydrophone_v.samples);
  expect_identical(rd.value().demod, golden);
}

TEST(SchemeSeamGolden, Fm0SnrSweepBitIdenticalAcrossThreadCounts) {
  // fig7-style sweep: quiet, moderate, and loud ambient noise.  Per-trial
  // results must be exact-double identical at 1, 2, and 8 threads at every
  // operating point, with the default (seam-routed) FM0 scheme.
  for (const double psd : {55.0, 70.0, 82.0}) {
    sim::Scenario scenario = sim::Scenario::pool_a().with_seed(131);
    scenario.medium.noise.psd_db_re_upa = psd;
    scenario.waveform.payload_bits = 32;
    const sim::Session session(scenario);
    constexpr std::size_t kTrials = 6;
    const auto serial =
        sim::BatchRunner(1).run<sim::TrialKind::kUplink>(session, kTrials);
    ASSERT_EQ(serial.size(), kTrials);
    for (const unsigned threads : {2u, 8u}) {
      const auto parallel =
          sim::BatchRunner(threads).run<sim::TrialKind::kUplink>(session,
                                                                 kTrials);
      for (std::size_t i = 0; i < kTrials; ++i) {
        ASSERT_EQ(serial[i].ok(), parallel[i].ok())
            << "psd " << psd << " trial " << i;
        if (!serial[i].ok()) continue;
        EXPECT_EQ(serial[i].value().sent, parallel[i].value().sent);
        EXPECT_EQ(serial[i].value().ber, parallel[i].value().ber);
        expect_identical(parallel[i].value().demod, serial[i].value().demod);
      }
    }
  }
}

// --- FSK schemes -------------------------------------------------------------

TEST(FskScheme, CleanEnvelopeRoundTrip) {
  Rng rng(59);
  for (const auto scheme : {phy::SchemeId::kFsk2, phy::SchemeId::kFsk4}) {
    const phy::DemodConfig dc;
    const auto bits = rng.bits(64);
    const auto sw =
        phy::scheme_waveform(scheme, bits, dc.bitrate, dc.sample_rate);

    const double mid = 1.2;
    const double amp = 0.08;
    std::vector<double> env(300, mid - amp);
    for (const auto s : sw)
      env.push_back(s == phy::SwitchState::kReflective ? mid + amp : mid - amp);
    env.insert(env.end(), 300, mid - amp);

    const phy::SchemeDemodulator demod({scheme, dc});
    dsp::Arena arena;
    phy::DemodResult out;
    const auto ok = demod.demodulate_envelope_into(env, dc.sample_rate,
                                                   bits.size(), arena, out);
    ASSERT_TRUE(ok.ok()) << phy::to_string(scheme) << ": "
                         << ok.error().message();
    EXPECT_EQ(out.bits, bits) << phy::to_string(scheme);
    // A clean capture decodes with strong, mutually consistent soft metrics.
    EXPECT_GT(out.snr_db, 10.0);
    EXPECT_GT(out.quality.mer_db, 10.0);
    EXPECT_LT(out.quality.evm_rms, 0.3);
    const double symbol_rate =
        phy::FskParams::from(scheme, dc.bitrate).symbol_rate();
    EXPECT_NEAR(out.quality.cn0_dbhz,
                out.quality.mer_db + 10.0 * std::log10(symbol_rate), 1e-9);
  }
}

TEST(FskScheme, NoisyEnvelopeStillDecodesAndMetricsDegrade) {
  Rng rng(61);
  const phy::DemodConfig dc;
  const auto bits = rng.bits(48);
  const auto sw = phy::scheme_waveform(phy::SchemeId::kFsk2, bits, dc.bitrate,
                                       dc.sample_rate);

  const double mid = 1.0, amp = 0.08;
  const auto synth = [&](double noise_sd) {
    std::vector<double> env(200, mid - amp);
    for (const auto s : sw)
      env.push_back(s == phy::SwitchState::kReflective ? mid + amp : mid - amp);
    env.insert(env.end(), 200, mid - amp);
    if (noise_sd > 0.0)
      for (auto& v : env) v += rng.gaussian(0.0, noise_sd);
    return env;
  };

  const phy::SchemeDemodulator demod({phy::SchemeId::kFsk2, dc});
  dsp::Arena arena;
  phy::DemodResult clean, noisy;
  ASSERT_TRUE(demod.demodulate_envelope_into(synth(0.0), dc.sample_rate,
                                             bits.size(), arena, clean)
                  .ok());
  ASSERT_TRUE(demod.demodulate_envelope_into(synth(0.2 * amp), dc.sample_rate,
                                             bits.size(), arena, noisy)
                  .ok());
  EXPECT_EQ(clean.bits, bits);
  EXPECT_EQ(noisy.bits, bits);
  EXPECT_GT(clean.quality.mer_db, noisy.quality.mer_db);
  EXPECT_LT(clean.quality.evm_rms, noisy.quality.evm_rms);
}

TEST(FskScheme, EndToEndLinkDecodes) {
  // The full waterfilled chain -- projector CW, recto-piezo switching, image
  // method multipath, hydrophone noise, passband receiver -- for both FSK
  // ladder rungs.
  for (const auto scheme : {phy::SchemeId::kFsk2, phy::SchemeId::kFsk4}) {
    core::LinkSimulator sim(sim::Scenario::pool_a().medium, core::Placement{});
    const auto proj = standard_projector();
    const auto fe = circuit::make_recto_piezo(15000.0);
    Rng rng(67);
    const auto bits = rng.bits(64);
    sim::Waveform cfg;
    cfg.scheme = scheme;
    Rng noise(sim.config().seed);
    const auto out = sim.run_and_decode(proj, fe, bits, cfg, noise);
    ASSERT_TRUE(out.ok()) << phy::to_string(scheme) << ": "
                          << out.error().message();
    EXPECT_EQ(phy::bit_error_rate(bits, out.value().demod.bits), 0.0)
        << phy::to_string(scheme);
    EXPECT_GT(out.value().demod.quality.mer_db, 3.0);
    EXPECT_GT(out.value().demod.quality.cn0_dbhz,
              out.value().demod.quality.mer_db);
  }
}

TEST(FskScheme, SessionTrialsBitIdenticalAcrossThreadCounts) {
  sim::Scenario scenario = sim::Scenario::pool_a().with_seed(173);
  scenario.waveform.scheme = phy::SchemeId::kFsk2;
  scenario.waveform.payload_bits = 32;
  const sim::Session session(scenario);
  constexpr std::size_t kTrials = 6;
  const auto serial =
      sim::BatchRunner(1).run<sim::TrialKind::kUplink>(session, kTrials);
  std::size_t decoded = 0;
  for (const auto& r : serial) decoded += r.ok() ? 1 : 0;
  EXPECT_GT(decoded, 0u);  // the sweep must actually exercise the scheme
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel =
        sim::BatchRunner(threads).run<sim::TrialKind::kUplink>(session, kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << i;
      if (!serial[i].ok()) continue;
      EXPECT_EQ(serial[i].value().sent, parallel[i].value().sent);
      expect_identical(parallel[i].value().demod, serial[i].value().demod);
    }
  }
}

TEST(SchemeSeam, WorkspaceCachesDemodulatorPerOperatingPoint) {
  phy::Workspace ws;
  phy::SchemeConfig a;
  a.scheme = phy::SchemeId::kFm0;
  const auto* first = &ws.scheme_demodulator(a);
  EXPECT_EQ(first, &ws.scheme_demodulator(a));  // same point -> cached
  phy::SchemeConfig b = a;
  b.scheme = phy::SchemeId::kFsk2;
  const auto* second = &ws.scheme_demodulator(b);
  EXPECT_EQ(second->config().scheme, phy::SchemeId::kFsk2);
  // Back to the first point rebuilds (single-slot cache).
  EXPECT_EQ(ws.scheme_demodulator(a).config().scheme, phy::SchemeId::kFm0);
}

}  // namespace
}  // namespace pab
