// Tests for the extension features: rate adaptation, the linear equalizer,
// WAV round-trip, and battery-assisted backscatter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "circuit/rectopiezo.hpp"
#include "core/link.hpp"
#include "dsp/wav.hpp"
#include "mac/rate_control.hpp"
#include "phy/equalizer.hpp"
#include "phy/fm0.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/scenario.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"

namespace pab {
namespace {

// --- Rate adaptation ---------------------------------------------------------

TEST(RateControl, UpshiftsOnSustainedHighSnr) {
  mac::RateController rc;
  EXPECT_NEAR(rc.rate_bps(), 100.0, 1e-9);
  for (int i = 0; i < 3; ++i) (void)rc.observe(20.0, true);
  EXPECT_NEAR(rc.rate_bps(), 200.0, 1e-9);
  EXPECT_EQ(rc.upshifts(), 1u);
}

TEST(RateControl, RequiresStreakToUpshift) {
  mac::RateController rc;
  (void)rc.observe(20.0, true);
  (void)rc.observe(20.0, true);
  EXPECT_NEAR(rc.rate_bps(), 100.0, 1e-9);  // streak of 2 < 3
  (void)rc.observe(4.0, true);              // breaks the streak (low headroom)
  (void)rc.observe(20.0, true);
  (void)rc.observe(20.0, true);
  EXPECT_NEAR(rc.rate_bps(), 100.0, 1e-9);
}

TEST(RateControl, DownshiftsImmediatelyOnCrcFailure) {
  mac::RateController rc(mac::RateControlConfig{}, /*initial_index=*/5);
  EXPECT_NEAR(rc.rate_bps(), 1000.0, 1e-9);
  EXPECT_TRUE(rc.observe(20.0, false));
  EXPECT_NEAR(rc.rate_bps(), 800.0, 1e-9);
  EXPECT_EQ(rc.downshifts(), 1u);
}

TEST(RateControl, DownshiftsOnLowSnr) {
  mac::RateController rc(mac::RateControlConfig{}, 5);
  EXPECT_TRUE(rc.observe(3.0, true));  // headroom 1 dB < down margin 3 dB
  EXPECT_NEAR(rc.rate_bps(), 800.0, 1e-9);
}

TEST(RateControl, ClampsAtTableEnds) {
  mac::RateController rc;
  for (int i = 0; i < 5; ++i) (void)rc.observe(0.0, false);
  EXPECT_EQ(rc.rate_index(), 0u);  // cannot go below the slowest rate
  mac::RateController hi(mac::RateControlConfig{}, 9);
  for (int i = 0; i < 20; ++i) (void)rc.observe(40.0, true);
  EXPECT_LT(rc.rate_index(), rc.config().ladder.size());
}

TEST(RateControl, ConvergesToSustainableRate) {
  // Link model: SNR falls 3 dB per table step (like Fig. 8); the controller
  // must settle where headroom sits between the margins.
  mac::RateController rc;
  const auto snr_at = [](std::size_t idx) { return 26.0 - 3.0 * static_cast<double>(idx); };
  for (int i = 0; i < 60; ++i)
    (void)rc.observe(snr_at(rc.rate_index()), true);
  const double headroom =
      snr_at(rc.rate_index()) -
      phy::scheme_descriptor(rc.scheme()).decode_floor_db;
  EXPECT_GE(headroom, rc.config().down_margin_db);
  EXPECT_LT(headroom, rc.config().up_margin_db + 3.0);
  EXPECT_GT(rc.rate_index(), 2u);  // actually climbed
}

TEST(RateControl, InvalidConfigThrows) {
  mac::RateControlConfig bad;
  bad.ladder.clear();
  EXPECT_THROW(mac::RateController rc(bad), std::invalid_argument);
  EXPECT_THROW(mac::RateController rc2(mac::RateControlConfig{}, 99),
               std::invalid_argument);
}

// --- Linear equalizer ----------------------------------------------------------

// Synthetic two-tap ISI channel on FM0 chips.
struct IsiLink {
  std::vector<std::complex<double>> rx;
  std::vector<double> ref;
  Bits bits;
};

IsiLink make_isi_link(std::size_t n_bits, double isi, double noise, Rng& rng) {
  IsiLink link;
  link.bits = rng.bits(n_bits);
  const auto chips = phy::fm0_encode(link.bits);
  link.ref.assign(chips.begin(), chips.end());
  link.rx.resize(chips.size());
  for (std::size_t t = 0; t < chips.size(); ++t) {
    std::complex<double> v = static_cast<double>(chips[t]);
    if (t >= 1) v += isi * static_cast<double>(chips[t - 1]);
    if (t >= 2) v += 0.4 * isi * static_cast<double>(chips[t - 2]);
    v += std::complex<double>(rng.gaussian(0.0, noise), rng.gaussian(0.0, noise));
    link.rx[t] = v;
  }
  return link;
}

TEST(Equalizer, RemovesIsi) {
  Rng rng(5);
  const auto train = make_isi_link(200, 0.6, 0.05, rng);
  phy::LinearEqualizer eq;
  eq.train(train.rx, train.ref);
  ASSERT_TRUE(eq.trained());

  const auto data = make_isi_link(400, 0.6, 0.05, rng);
  const auto raw_soft = [&] {
    std::vector<double> s(data.rx.size());
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = data.rx[i].real();
    return s;
  }();
  const auto eq_out = eq.apply(data.rx);
  std::vector<double> eq_soft(eq_out.size());
  for (std::size_t i = 0; i < eq_soft.size(); ++i) eq_soft[i] = eq_out[i].real();

  const auto raw_bits = phy::fm0_decode_ml(raw_soft);
  const auto eq_bits = phy::fm0_decode_ml(eq_soft);
  const auto raw_err = hamming_distance(data.bits, raw_bits);
  const auto eq_err = hamming_distance(data.bits, eq_bits);
  EXPECT_LE(eq_err, raw_err);
  EXPECT_LE(eq_err, data.bits.size() / 50);  // < 2% after equalization
}

TEST(Equalizer, IdentityChannelPassesThrough) {
  Rng rng(6);
  const auto link = make_isi_link(300, 0.0, 0.01, rng);
  phy::LinearEqualizer eq;
  eq.train(link.rx, link.ref);
  const auto out = eq.apply(link.rx);
  // Output correlates strongly with the reference.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    num += out[i].real() * link.ref[i];
    den += link.ref[i] * link.ref[i];
  }
  EXPECT_NEAR(num / den, 1.0, 0.05);
}

TEST(Equalizer, DecisionDirectedPassLiftsChipSnr) {
  // The demodulator's second (decision-directed) pass equalizes the tank's
  // reverberation tail: chip SNR rises ~2-3 dB at high bitrates with BER
  // staying essentially zero.
  core::SimConfig sc = sim::Scenario::pool_a().medium;
  sc.noise.psd_db_re_upa = 76.0;
  core::Placement pl;
  pl.projector = {1.2, 1.5, 0.65};
  pl.hydrophone = {1.8, 1.5, 0.65};
  pl.node = {1.5, 2.1, 0.65};
  core::LinkSimulator sim(sc, pl);
  const core::Projector proj(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(3);
  const auto bits = rng.bits(192);
  sim::Waveform cfg;
  cfg.bitrate = 2800.0;
  Rng noise(sc.seed);
  const auto run = sim.run_uplink(proj, fe, bits, cfg, noise);

  phy::DemodConfig base;
  base.sample_rate = sc.sample_rate;
  base.bitrate = 2800.0;
  phy::DemodConfig dd = base;
  dd.decision_directed_equalizer = true;

  const auto r0 = phy::SchemeDemodulator({phy::SchemeId::kFm0, base})
                      .demodulate(run.hydrophone_v, bits.size());
  const auto r1 = phy::SchemeDemodulator({phy::SchemeId::kFm0, dd})
                      .demodulate(run.hydrophone_v, bits.size());
  ASSERT_TRUE(r0.ok() && r1.ok());
  EXPECT_GT(r1.value().snr_db, r0.value().snr_db + 1.0);
  EXPECT_LE(phy::bit_error_rate(bits, r1.value().bits), 0.02);
}

TEST(Equalizer, UntrainedApplyThrows) {
  phy::LinearEqualizer eq;
  std::vector<std::complex<double>> x(10);
  EXPECT_THROW((void)eq.apply(x), std::invalid_argument);
}

TEST(Equalizer, TooLittleTrainingThrows) {
  phy::LinearEqualizer eq;
  std::vector<std::complex<double>> x(5);
  std::vector<double> r(5);
  EXPECT_THROW(eq.train(x, r), std::invalid_argument);
}

// --- WAV round-trip -------------------------------------------------------------

TEST(Wav, RoundTripPreservesWaveform) {
  const dsp::Signal s = testing::make_tone(1500.0, 0.5, 0.05, 48000.0);
  const std::string path = "/tmp/pab_test_roundtrip.wav";
  ASSERT_EQ(dsp::write_wav(path, s), ErrorCode::kOk);
  const auto back = dsp::read_wav(path);
  ASSERT_TRUE(back.ok()) << back.error().message();
  ASSERT_EQ(back.value().size(), s.size());
  EXPECT_NEAR(back.value().sample_rate, 48000.0, 1e-9);
  double max_err = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i)
    max_err = std::max(max_err, std::abs(back.value()[i] - s[i]));
  EXPECT_LT(max_err, 1.0 / 32000.0);  // quantization only
  std::remove(path.c_str());
}

TEST(Wav, ClipsBeyondFullScale) {
  dsp::Signal s;
  s.sample_rate = 8000.0;
  s.samples = {2.0, -2.0, 0.5};
  const std::string path = "/tmp/pab_test_clip.wav";
  ASSERT_EQ(dsp::write_wav(path, s, /*full_scale=*/1.0), ErrorCode::kOk);
  const auto back = dsp::read_wav(path);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back.value()[0], 1.0, 1e-3);
  EXPECT_NEAR(back.value()[1], -1.0, 1e-3);
  EXPECT_NEAR(back.value()[2], 0.5, 1e-3);
  std::remove(path.c_str());
}

TEST(Wav, MissingFileReportsError) {
  EXPECT_FALSE(dsp::read_wav("/tmp/definitely_missing_pab.wav").ok());
}

// --- Battery-assisted backscatter ---------------------------------------------

TEST(BatteryAssist, GainBoostsModulationDepth) {
  circuit::RectoPiezoConfig passive;
  passive.match_frequency_hz = 15000.0;
  circuit::RectoPiezoConfig assisted = passive;
  assisted.assist_gain_db = 10.0;
  const circuit::RectoPiezo p(piezo::make_node_transducer(), passive);
  const circuit::RectoPiezo a(piezo::make_node_transducer(), assisted);
  EXPECT_NEAR(a.modulation_depth(15000.0) / p.modulation_depth(15000.0),
              std::pow(10.0, 10.0 / 20.0), 1e-9);
  EXPECT_FALSE(p.battery_assisted());
  EXPECT_TRUE(a.battery_assisted());
}

TEST(BatteryAssist, PassiveBurnsNoAssistPower) {
  const auto p = circuit::make_recto_piezo(15000.0);
  EXPECT_EQ(p.assist_power_w(100.0), 0.0);
}

TEST(BatteryAssist, PowerGrowsWithGainAndField) {
  circuit::RectoPiezoConfig cfg;
  cfg.match_frequency_hz = 15000.0;
  cfg.assist_gain_db = 10.0;
  const circuit::RectoPiezo a(piezo::make_node_transducer(), cfg);
  EXPECT_GT(a.assist_power_w(100.0), 0.0);
  EXPECT_GT(a.assist_power_w(200.0), a.assist_power_w(100.0));
  circuit::RectoPiezoConfig more = cfg;
  more.assist_gain_db = 20.0;
  const circuit::RectoPiezo b(piezo::make_node_transducer(), more);
  EXPECT_GT(b.assist_power_w(100.0), a.assist_power_w(100.0));
}

TEST(BatteryAssist, StillFarCheaperThanActiveTx) {
  // Even a 20 dB reflection amplifier burns milliwatts -- orders below the
  // watts an active acoustic transmitter needs.
  circuit::RectoPiezoConfig cfg;
  cfg.match_frequency_hz = 15000.0;
  cfg.assist_gain_db = 20.0;
  const circuit::RectoPiezo a(piezo::make_node_transducer(), cfg);
  EXPECT_LT(a.assist_power_w(400.0), 50e-3);
}

}  // namespace
}  // namespace pab
