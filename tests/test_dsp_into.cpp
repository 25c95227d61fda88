// Equivalence suite for the into-output (span/arena) kernels of the trial
// path: every one must produce EXACTLY the same samples as its
// vector-returning wrapper on random inputs.  Exact (bit-level) equality is
// the contract -- the into-kernels are the same arithmetic in the same order,
// and the Monte-Carlo determinism suite depends on it.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "channel/propagation.hpp"
#include "channel/tank.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/link.hpp"
#include "core/projector.hpp"
#include "dsp/arena.hpp"
#include "dsp/correlate.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/iir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd.hpp"
#include "phy/fm0.hpp"
#include "phy/fsk.hpp"
#include "phy/packet.hpp"
#include "phy/scheme.hpp"
#include "sim/scenario.hpp"
#include "pearson_oracle.hpp"
#include "util/rng.hpp"

namespace pab {
namespace {

std::vector<double> random_vec(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian(0.0, scale);
  return v;
}

std::vector<dsp::cplx> random_cvec(Rng& rng, std::size_t n) {
  std::vector<dsp::cplx> v(n);
  for (auto& x : v) x = {rng.gaussian(), rng.gaussian()};
  return v;
}

template <typename T>
void expect_exactly_equal(const std::vector<T>& want, std::span<const T> got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(want[i], got[i]) << "sample " << i;
}

// --- dsp ----------------------------------------------------------------------

TEST(DspInto, BiquadCascadeFilterMatchesWrapperAndAliases) {
  Rng rng(102);
  const auto lp = dsp::butterworth_lowpass(5, 2500.0, 96000.0);
  const auto cx = random_cvec(rng, 800);
  const auto cwant = lp.filter(cx);
  std::vector<dsp::cplx> cgot(cx.size());
  lp.filter_into(cx, cgot);
  expect_exactly_equal<dsp::cplx>(cwant, cgot);
  // In place: y aliases x.
  std::vector<dsp::cplx> cin = cx;
  lp.filter_into(cin, cin);
  expect_exactly_equal<dsp::cplx>(cwant, cin);
}

TEST(DspInto, DownconvertMatchesWrapper) {
  Rng rng(103);
  const dsp::Signal x(random_vec(rng, 2000), 96000.0);
  const dsp::BasebandSignal want = dsp::downconvert(x, 15000.0);
  std::vector<dsp::cplx> got(x.size());
  dsp::downconvert_into(x.samples, x.sample_rate, 15000.0, got);
  expect_exactly_equal<dsp::cplx>(want.samples, got);
}

TEST(DspInto, DownconvertFilteredArenaMatchesWrapper) {
  Rng rng(105);
  const dsp::Signal x(random_vec(rng, 4096), 96000.0);
  const auto lp = dsp::butterworth_lowpass(5, 2500.0, x.sample_rate);
  dsp::Arena arena;
  for (const std::size_t decim : {std::size_t{1}, std::size_t{4}}) {
    const dsp::BasebandSignal want =
        dsp::downconvert_filtered(x, 15000.0, 2500.0, 5, decim);
    const auto frame = arena.frame();
    const dsp::CplxView got = dsp::downconvert_filtered(
        x.samples, x.sample_rate, 15000.0, lp, decim, arena);
    EXPECT_EQ(want.sample_rate, got.sample_rate);
    EXPECT_EQ(want.carrier_hz, got.carrier_hz);
    expect_exactly_equal<dsp::cplx>(want.samples, got.samples);
  }
}

TEST(DspInto, CorrelationsMatchWrappers) {
  // pearson_peak over every prefix of starts is the full scan's first
  // maximum: same index, same double.
  Rng rng(109);
  const auto x = random_vec(rng, 500);
  const auto t = random_vec(rng, 37);
  const std::size_t len = dsp::correlation_length(x.size(), t.size());
  ASSERT_EQ(len, 464u);
  const auto scan = testing::pearson_scan(x, t);
  dsp::Arena arena;
  for (std::size_t n = 0; n <= len; ++n) {
    const dsp::CorrPeak want =
        testing::first_abs_max(std::span<const double>(scan).first(n));
    const dsp::CorrPeak got = dsp::pearson_peak(x, t, n, arena);
    ASSERT_EQ(want.index, got.index) << "n_windows " << n;
    ASSERT_EQ(want.corr, got.corr) << "n_windows " << n;
  }
  EXPECT_EQ(arena.used_bytes(), 0u);
}

TEST(DspInto, ToneAmplitudesMatchScalarGoertzel) {
  Rng rng(111);
  const auto x = random_vec(rng, 960);
  const std::vector<double> freqs{12000.0, 15000.0, 18000.0};
  std::vector<double> got(freqs.size());
  dsp::tone_amplitudes_into(x, freqs, 96000.0, got);
  for (std::size_t i = 0; i < freqs.size(); ++i)
    EXPECT_EQ(dsp::tone_amplitude(x, freqs[i], 96000.0), got[i]);
}

// --- channel ------------------------------------------------------------------

TEST(DspInto, ApplyTapsMatchesWrapper) {
  Rng rng(112);
  const double fs = 96000.0;
  const channel::Tank tank = channel::make_pool_a();
  const auto taps = channel::image_method_taps(
      tank, {0.5, 0.8, 0.65}, {1.6, 2.2, 0.65}, /*max_order=*/2, 15000.0);
  ASSERT_FALSE(taps.empty());

  dsp::BasebandSignal bx;
  bx.samples = random_cvec(rng, 2000);
  bx.sample_rate = fs;
  bx.carrier_hz = 15000.0;
  const dsp::BasebandSignal bwant = channel::apply_taps_baseband(bx, taps);
  ASSERT_EQ(bwant.size(), channel::apply_taps_length(bx.size(), fs, taps));
  std::vector<dsp::cplx> bgot(bwant.size());
  channel::apply_taps_baseband_into(bx.samples, fs, bx.carrier_hz, taps, bgot);
  expect_exactly_equal<dsp::cplx>(bwant.samples, bgot);

  dsp::Arena arena;
  const auto frame = arena.frame();
  const dsp::CplxView aview =
      channel::apply_taps_baseband(dsp::CplxView(bx), taps, arena);
  EXPECT_EQ(bwant.sample_rate, aview.sample_rate);
  EXPECT_EQ(bwant.carrier_hz, aview.carrier_hz);
  expect_exactly_equal<dsp::cplx>(bwant.samples, aview.samples);
}

// --- phy ----------------------------------------------------------------------

TEST(DspInto, Fm0EncodeDecodeMatchWrappers) {
  Rng rng(113);
  const auto bits = rng.bits(257);
  const phy::Chips want_chips = phy::fm0_encode(bits, -1);
  std::vector<std::int8_t> got_chips(bits.size() * 2);
  phy::fm0_encode_into(bits, -1, got_chips);
  expect_exactly_equal<std::int8_t>(want_chips, got_chips);

  std::vector<double> soft(want_chips.size());
  for (std::size_t i = 0; i < soft.size(); ++i)
    soft[i] = static_cast<double>(want_chips[i]) + rng.gaussian(0.0, 0.8);
  const Bits want_bits = phy::fm0_decode_ml(soft, -1);
  dsp::Arena arena;
  std::vector<std::uint8_t> got_bits(soft.size() / 2);
  phy::fm0_decode_ml_into(soft, -1, got_bits, arena);
  expect_exactly_equal<std::uint8_t>(want_bits, got_bits);
}

TEST(DspInto, SchemeWaveformMatchesWrapper) {
  Rng rng(117);
  const auto bits = rng.bits(64);
  for (const auto scheme :
       {phy::SchemeId::kFm0, phy::SchemeId::kFsk2, phy::SchemeId::kFsk4}) {
    const auto want = phy::scheme_waveform(scheme, bits, 1000.0, 96000.0);
    ASSERT_EQ(want.size(), phy::scheme_waveform_length(scheme, bits.size(),
                                                       1000.0, 96000.0));
    dsp::Arena arena;
    std::vector<phy::SwitchState> got(want.size());
    phy::scheme_waveform_into(scheme, bits, 1000.0, 96000.0, got, arena);
    expect_exactly_equal<phy::SwitchState>(want, got);
  }
}

TEST(DspInto, DemodulateIntoMatchesWrapperOnSynthesizedCapture) {
  // Clean FM0 envelope: preamble + payload at two levels around a carrier
  // offset, upconverted to passband -- enough for the full demodulate chain.
  Rng rng(118);
  phy::DemodConfig dc;
  dc.bitrate = 1000.0;
  const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, dc});

  const auto payload = rng.bits(48);
  const auto sw = phy::scheme_waveform(phy::SchemeId::kFm0, payload, dc.bitrate,
                                       dc.sample_rate);

  const std::size_t lead = 512;
  dsp::BasebandSignal bb;
  bb.sample_rate = dc.sample_rate;
  bb.carrier_hz = dc.carrier_hz;
  bb.samples.assign(lead + sw.size() + 512, dsp::cplx{1.0, 0.0});
  for (std::size_t i = 0; i < sw.size(); ++i) {
    const double level = sw[i] == phy::SwitchState::kReflective ? 1.3 : 0.7;
    bb.samples[lead + i] = {level, 0.0};
  }
  dsp::Signal passband = dsp::upconvert(bb, dc.carrier_hz);
  for (auto& v : passband.samples) v += rng.gaussian(0.0, 0.05);

  const auto want = demod.demodulate(passband, payload.size());
  ASSERT_TRUE(want.ok());

  dsp::Arena arena;
  phy::DemodResult got;
  const auto ok = demod.demodulate_into(passband.samples, passband.sample_rate,
                                        payload.size(), arena, got);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(want.value().bits, got.bits);
  EXPECT_EQ(want.value().start_sample, got.start_sample);
  EXPECT_EQ(want.value().channel_amp, got.channel_amp);
  EXPECT_EQ(want.value().mid_level, got.mid_level);
  EXPECT_EQ(want.value().snr_db, got.snr_db);
  EXPECT_EQ(want.value().preamble_corr, got.preamble_corr);
  EXPECT_EQ(payload, got.bits);
}

// --- core ---------------------------------------------------------------------

TEST(DspInto, CwEnvelopeMatchesWrapper) {
  const auto proj = core::Projector::ideal(300.0);
  const dsp::BasebandSignal want = proj.cw_envelope(15000.0, 0.01, 96000.0, 0.002);
  std::vector<dsp::cplx> got(
      core::Projector::cw_envelope_length(0.01, 96000.0, 0.002));
  proj.cw_envelope_into(15000.0, 96000.0, 0.002, got);
  expect_exactly_equal<dsp::cplx>(want.samples, got);
}

// --- preamble peak -----------------------------------------------------------

// The uplink preamble template at `spc` samples per chip, built as
// SchemeDemodulator::acquire builds it.
std::vector<double> preamble_template(double spc) {
  const phy::Chips chips =
      phy::fm0_encode(phy::uplink_preamble_bits(), /*initial_level=*/-1);
  std::vector<double> t(static_cast<std::size_t>(
      std::ceil(static_cast<double>(chips.size()) * spc)));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = chips[std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(i) / spc),
        chips.size() - 1)];
  return t;
}

// pearson_peak against the full scan's first maximum, under the active
// dispatch and again under scalar dispatch; returns the active run's peak.
dsp::CorrPeak expect_peak_matches_scan(std::span<const double> x,
                                       std::span<const double> t,
                                       std::size_t n_windows,
                                       const std::string& what) {
  std::vector<dsp::simd::Isa> isas{dsp::simd::active()};
  if (isas.front() != dsp::simd::Isa::kScalar)
    isas.push_back(dsp::simd::Isa::kScalar);
  dsp::Arena arena;
  dsp::CorrPeak active;
  for (const dsp::simd::Isa isa : isas) {
    const dsp::simd::DispatchGuard guard(isa, dsp::simd::fftconv_enabled());
    const dsp::CorrPeak want =
        testing::first_abs_max(testing::pearson_scan(x, t, n_windows));
    const dsp::CorrPeak got = dsp::pearson_peak(x, t, n_windows, arena);
    EXPECT_EQ(want.index, got.index) << what << " under " << isa_name(isa);
    EXPECT_EQ(want.corr, got.corr) << what << " under " << isa_name(isa);
    if (isa == isas.front()) active = got;
  }
  return active;
}

TEST(PreamblePeak, EdgeCasesMatchFullScan) {
  Rng rng(120);
  const auto t = preamble_template(5.0);  // 120 samples, 18 jumps
  const std::size_t nx = 600;
  const std::size_t len = dsp::correlation_length(nx, t.size());
  // A preamble at sample 200 in unit noise.
  std::vector<double> noisy = random_vec(rng, nx);
  for (std::size_t i = 0; i < t.size(); ++i) noisy[200 + i] += 3.0 * t[i];

  expect_peak_matches_scan(std::vector<double>(nx, 3.7), t, len, "constant");
  expect_peak_matches_scan(std::vector<double>(nx, 0.0), t, len, "all-zero");
  expect_peak_matches_scan(noisy, std::vector<double>(t.size(), 1.0), len,
                           "constant template");
  expect_peak_matches_scan(noisy, t, 0, "no windows");
  expect_peak_matches_scan(noisy, t, 1, "one window");
  expect_peak_matches_scan(noisy, random_vec(rng, 57), len, "dense template");

  // Non-finite samples before, inside and after the preamble.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf})
    for (const std::size_t at : {std::size_t{50}, std::size_t{250},
                                 std::size_t{500}}) {
      auto x = noisy;
      x[at] = bad;
      expect_peak_matches_scan(x, t, len,
                               "sample " + std::to_string(at) + " = " +
                                   std::to_string(bad));
    }

  // Small modulations on large pedestals, and extreme scales.
  const auto modulated = [&](double pedestal, double depth, double noise) {
    std::vector<double> x(nx);
    for (std::size_t i = 0; i < nx; ++i)
      x[i] = pedestal + noise * rng.gaussian() +
             (i >= 200 && i < 200 + t.size() ? depth * t[i - 200] : -depth);
    return x;
  };
  const auto pico = modulated(1.0, 1e-9, 1e-10);
  EXPECT_EQ(expect_peak_matches_scan(pico, t, len, "1e-9 on 1").index, 200u);
  expect_peak_matches_scan(modulated(5e3, 1e-3, 1e-4), t, len, "1e-3 on 5e3");
  for (const double scale : {1e150, 1e-160}) {
    auto x = noisy;
    for (auto& v : x) v *= scale;
    expect_peak_matches_scan(x, t, len, "scale " + std::to_string(scale));
  }

  // Near-ties on a pedestal: two copies of one noisy preamble at 1e-9 depth
  // on a unit pedestal, one sample of the second nudged.  The exact scores
  // differ by less than the exact formula's own rounding (its window mean is
  // off by ~1e-16 against a 1e-9 modulation), so that rounding, not the
  // data, decides which copy wins -- and a fixed margin around the fast
  // maximum would miss it.
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> y = random_vec(rng, nx, 0.3);
    for (std::size_t i = 0; i < t.size(); ++i) y[100 + i] += t[i];
    std::copy_n(y.begin() + 100, t.size(), y.begin() + 400);
    y[407] += 1e-5;
    for (auto& v : y) v = 1.0 + 1e-9 * v;
    expect_peak_matches_scan(y, t, len, "near tie " + std::to_string(trial));
  }
}

TEST(PreamblePeak, MatchesFullScanOnRealCaptures) {
  // fig8's close Pool A placement, captured and down-converted the way the
  // receiver does it, at a quiet and a loud ambient.
  core::Placement pl;
  pl.projector = {1.2, 1.5, 0.65};
  pl.hydrophone = {1.8, 1.5, 0.65};
  pl.node = {1.5, 2.1, 0.65};
  const core::Projector proj(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(121);
  for (const double ambient_db : {62.0, 102.0}) {
    core::SimConfig sc = sim::Scenario::pool_a().medium;
    sc.noise.psd_db_re_upa = ambient_db;
    const core::LinkSimulator link(sc, pl);
    for (const auto scheme :
         {phy::SchemeId::kFm0, phy::SchemeId::kFsk2, phy::SchemeId::kFsk4}) {
      for (const double bitrate : {100.0, 1000.0, 2800.0, 5000.0}) {
        const std::string what = std::string(phy::to_string(scheme)) + " at " +
                                 std::to_string(bitrate) + " bps, " +
                                 std::to_string(ambient_db) + " dB";
        sim::Waveform w;
        w.scheme = scheme;
        w.bitrate = bitrate;
        const auto bits = rng.bits(96);
        const auto run = link.run_uplink(proj, fe, bits, w, rng);
        const double fs = run.hydrophone_v.sample_rate;

        // The receiver front end: its low-pass, down-conversion, envelope.
        double min_cutoff_hz = 0.0;
        if (scheme != phy::SchemeId::kFm0) {
          const auto p = phy::FskParams::from(scheme, bitrate);
          min_cutoff_hz = p.max_tone_hz() + p.symbol_rate();
        }
        const auto lowpass = dsp::butterworth_lowpass(
            5, std::min(std::max(2.5 * bitrate, min_cutoff_hz), fs / 2.5), fs);
        dsp::Arena arena;
        const dsp::CplxView bb = dsp::downconvert_filtered(
            run.hydrophone_v.samples, fs, w.carrier_hz, lowpass, 1, arena);
        std::vector<double> env(bb.size());
        dsp::simd::magnitude(bb.samples, env);

        // The starts acquire scores: those after which the packet fits.
        const double spc = fs / (2.0 * bitrate);
        const auto t = preamble_template(spc);
        const std::size_t packet =
            phy::scheme_waveform_length(scheme, bits.size(), bitrate, fs);
        ASSERT_LT(packet, env.size()) << what;
        const std::size_t n_windows =
            std::min(dsp::correlation_length(env.size(), t.size()),
                     env.size() - packet + 1);

        const dsp::CorrPeak peak =
            expect_peak_matches_scan(env, t, n_windows, what);
        EXPECT_EQ(peak.rescored, 1u) << what;

        // The receiver found the same peak on its own envelope.
        phy::SchemeConfig cfg;
        cfg.scheme = scheme;
        cfg.demod.bitrate = bitrate;
        cfg.demod.carrier_hz = w.carrier_hz;
        cfg.demod.sample_rate = fs;
        const auto decoded = phy::SchemeDemodulator(cfg).demodulate(
            run.hydrophone_v, bits.size());
        if (decoded.ok()) {
          EXPECT_EQ(decoded.value().start_sample, peak.index) << what;
          EXPECT_EQ(decoded.value().preamble_corr, peak.corr) << what;
        }
      }
    }
  }
}

// --- arena semantics ----------------------------------------------------------

TEST(DspInto, ArenaFrameRewindsAndSpansSurviveGrowth) {
  dsp::Arena arena(1024);
  const auto a = arena.alloc<double>(16);
  {
    const auto frame = arena.frame();
    // Force growth past the first block: earlier spans must stay valid
    // (the arena adds blocks, it never reallocates live ones).
    const auto big = arena.alloc<double>(4096);
    a[0] = 42.0;
    big[0] = 1.0;
    EXPECT_GE(arena.capacity_bytes(), 4096 * sizeof(double));
  }
  // Frame rewound: the next alloc reuses the same offset.
  const std::size_t used_before = arena.used_bytes();
  const auto b = arena.alloc<double>(8);
  (void)b;
  EXPECT_EQ(used_before + 8 * sizeof(double), arena.used_bytes());
  EXPECT_EQ(42.0, a[0]);
}

}  // namespace
}  // namespace pab
