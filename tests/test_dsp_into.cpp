// Equivalence suite for the into-output (span/arena) kernels of the trial
// path: every one must produce EXACTLY the same samples as its
// vector-returning wrapper on random inputs.  Exact (bit-level) equality is
// the contract -- the into-kernels are the same arithmetic in the same order,
// and the Monte-Carlo determinism suite depends on it.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "channel/propagation.hpp"
#include "channel/tank.hpp"
#include "core/projector.hpp"
#include "dsp/arena.hpp"
#include "dsp/correlate.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/iir.hpp"
#include "dsp/mixer.hpp"
#include "phy/fm0.hpp"
#include "phy/packet.hpp"
#include "phy/scheme.hpp"
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
  Rng rng(109);
  const auto x = random_vec(rng, 500);
  const auto t = random_vec(rng, 37);
  const auto want_pearson = dsp::pearson_correlation(x, t);
  ASSERT_EQ(want_pearson.size(), dsp::correlation_length(x.size(), t.size()));
  std::vector<double> got_pearson(want_pearson.size());
  dsp::pearson_correlation_into(x, t, got_pearson);
  expect_exactly_equal<double>(want_pearson, got_pearson);
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
