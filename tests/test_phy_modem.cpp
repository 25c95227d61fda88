// Modem, metrics, and CFO tests.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/mixer.hpp"
#include "phy/cfo.hpp"
#include "phy/fm0.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab::phy {
namespace {

// Build a clean synthetic envelope carrying preamble+bits at the given rates.
std::vector<double> synth_envelope(const Bits& data, double bitrate, double fs,
                                   double mid, double amp, std::size_t lead,
                                   pab::Rng* rng = nullptr, double noise = 0.0) {
  const auto sw = scheme_waveform(SchemeId::kFm0, data, bitrate, fs);
  std::vector<double> env(lead, mid - amp);
  for (auto s : sw)
    env.push_back(s == SwitchState::kReflective ? mid + amp : mid - amp);
  env.insert(env.end(), lead, mid - amp);
  if (rng != nullptr)
    for (auto& v : env) v += rng->gaussian(0.0, noise);
  return env;
}

TEST(Modem, SwitchWaveformLengthAndLevels) {
  const Bits bits = {1, 0, 1};
  const auto sw = scheme_waveform(SchemeId::kFm0, bits, 1000.0, 96000.0);
  // (preamble + 3 bits) * 2 chips * 48 samples.
  EXPECT_EQ(sw.size(), (uplink_preamble_bits().size() + 3) * 2 * 48);
  // First chip of the first preamble bit is reflective (boundary flip from -1).
  EXPECT_EQ(sw.front(), SwitchState::kReflective);
}

TEST(Modem, CleanEnvelopeDecodes) {
  pab::Rng rng(1);
  const auto bits = rng.bits(64);
  const auto env = synth_envelope(bits, 1000.0, 96000.0, 1.0, 0.05, 500);
  const SchemeDemodulator demod(SchemeConfig{});
  const auto r = demod.demodulate_envelope(env, 96000.0, bits.size());
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().bits, bits);
  EXPECT_NEAR(r.value().channel_amp, 0.05, 0.005);
  EXPECT_GT(r.value().preamble_corr, 0.95);
}

TEST(Modem, InvertedEnvelopeDecodes) {
  // Anti-phase backscatter flips the levels; the demodulator must cope.
  pab::Rng rng(2);
  const auto bits = rng.bits(64);
  auto env = synth_envelope(bits, 1000.0, 96000.0, 1.0, -0.05, 500);
  const SchemeDemodulator demod(SchemeConfig{});
  const auto r = demod.demodulate_envelope(env, 96000.0, bits.size());
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().bits, bits);
}

TEST(Modem, NoisyEnvelopeLowBer) {
  pab::Rng rng(3);
  const auto bits = rng.bits(256);
  const auto env =
      synth_envelope(bits, 1000.0, 96000.0, 1.0, 0.05, 300, &rng, 0.05);
  const SchemeDemodulator demod(SchemeConfig{});
  const auto r = demod.demodulate_envelope(env, 96000.0, bits.size());
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_LT(bit_error_rate(bits, r.value().bits), 0.02);
}

TEST(Modem, NoPacketReturnsNoPreamble) {
  pab::Rng rng(4);
  std::vector<double> env(20000, 1.0);
  for (auto& v : env) v += rng.gaussian(0.0, 0.001);
  const SchemeDemodulator demod(SchemeConfig{});
  const auto r = demod.demodulate_envelope(env, 96000.0, 32);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), pab::ErrorCode::kNoPreamble);
}

TEST(Modem, FractionalSamplesPerChip) {
  // 2.8 kbps at 96 kHz -> 17.14 samples/chip; must still decode.
  pab::Rng rng(5);
  const auto bits = rng.bits(96);
  const auto env = synth_envelope(bits, 2800.0, 96000.0, 1.0, 0.05, 400);
  DemodConfig cfg;
  cfg.bitrate = 2800.0;
  const SchemeDemodulator demod({SchemeId::kFm0, cfg});
  const auto r = demod.demodulate_envelope(env, 96000.0, bits.size());
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().bits, bits);
}

TEST(Modem, SnrEstimateTracksNoise) {
  pab::Rng rng(6);
  const auto bits = rng.bits(128);
  const auto quiet =
      synth_envelope(bits, 1000.0, 96000.0, 1.0, 0.05, 300, &rng, 0.005);
  const auto loud =
      synth_envelope(bits, 1000.0, 96000.0, 1.0, 0.05, 300, &rng, 0.05);
  const SchemeDemodulator demod(SchemeConfig{});
  const auto rq = demod.demodulate_envelope(quiet, 96000.0, bits.size());
  const auto rl = demod.demodulate_envelope(loud, 96000.0, bits.size());
  ASSERT_TRUE(rq.ok() && rl.ok());
  EXPECT_GT(rq.value().snr_db, rl.value().snr_db + 10.0);
}

TEST(LinkQuality, FromErrorRatioIsConsistentTrio) {
  const auto q = link_quality_from_error_ratio(0.01, 2000.0);
  EXPECT_NEAR(q.mer_db, 20.0, 1e-12);
  EXPECT_NEAR(q.evm_rms, 0.1, 1e-12);
  EXPECT_NEAR(q.cn0_dbhz, 20.0 + 10.0 * std::log10(2000.0), 1e-12);
  // Error-free decode: EVM 0, MER pinned at the clamp.
  const auto clean = link_quality_from_error_ratio(0.0, 2000.0);
  EXPECT_EQ(clean.evm_rms, 0.0);
  EXPECT_EQ(clean.mer_db, kMerClampDb);
  // Error dominating signal clamps at the other end.
  const auto swamped = link_quality_from_error_ratio(1e12, 2000.0);
  EXPECT_EQ(swamped.mer_db, -kMerClampDb);
  EXPECT_TRUE(std::isfinite(swamped.evm_rms));
}

TEST(LinkQuality, FromSnrMatchesErrorRatioInverse) {
  // The model-level constructor and the waveform-level one agree: an SNR of
  // x dB is the error ratio 10^(-x/10).
  for (const double snr : {-10.0, 0.0, 12.5, 40.0}) {
    const auto a = link_quality_from_snr(snr, 1000.0);
    const auto b =
        link_quality_from_error_ratio(std::pow(10.0, -snr / 10.0), 1000.0);
    EXPECT_NEAR(a.mer_db, b.mer_db, 1e-9) << snr;
    EXPECT_NEAR(a.evm_rms, b.evm_rms, 1e-9) << snr;
    EXPECT_NEAR(a.cn0_dbhz, b.cn0_dbhz, 1e-9) << snr;
  }
  // Out-of-clamp SNRs pin MER exactly like the packet estimator does.
  EXPECT_EQ(link_quality_from_snr(80.0, 1000.0).mer_db, kMerClampDb);
  EXPECT_EQ(link_quality_from_snr(-80.0, 1000.0).mer_db, -kMerClampDb);
}

TEST(LinkQuality, DemodulatorPublishesQualityAlongsideSnr) {
  pab::Rng rng(9);
  const auto bits = rng.bits(96);
  const auto quiet =
      synth_envelope(bits, 1000.0, 96000.0, 1.0, 0.05, 300, &rng, 0.005);
  const auto loud =
      synth_envelope(bits, 1000.0, 96000.0, 1.0, 0.05, 300, &rng, 0.05);
  const SchemeDemodulator demod(SchemeConfig{});
  const auto rq = demod.demodulate_envelope(quiet, 96000.0, bits.size());
  const auto rl = demod.demodulate_envelope(loud, 96000.0, bits.size());
  ASSERT_TRUE(rq.ok() && rl.ok());
  // FM0's MER and the paper's SNR estimator are the same quantity.
  EXPECT_NEAR(rq.value().quality.mer_db, rq.value().snr_db, 1e-9);
  EXPECT_NEAR(rl.value().quality.mer_db, rl.value().snr_db, 1e-9);
  // The trio tracks the channel the same way SNR does.
  EXPECT_GT(rq.value().quality.mer_db, rl.value().quality.mer_db);
  EXPECT_LT(rq.value().quality.evm_rms, rl.value().quality.evm_rms);
  EXPECT_GT(rq.value().quality.cn0_dbhz, rq.value().quality.mer_db);
}

TEST(Metrics, BitErrorRate) {
  const Bits a = {1, 0, 1, 0};
  const Bits b = {1, 1, 1, 0};
  EXPECT_NEAR(bit_error_rate(a, b), 0.25, 1e-12);
}

TEST(Metrics, SnrEstimatorCalibrated) {
  // Known SNR by construction: rx = h*ref + noise.
  pab::Rng rng(7);
  const double h = 0.8;
  const double snr_db = 12.0;
  const double noise_sd = h / std::sqrt(pab::power_ratio_from_db(snr_db));
  std::vector<double> ref(20000), rx(20000);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    rx[i] = h * ref[i] + rng.gaussian(0.0, noise_sd);
  }
  EXPECT_NEAR(estimate_snr_db(rx, ref), snr_db, 0.3);
}

TEST(Metrics, ComplexSnrMatchesReal) {
  pab::Rng rng(8);
  std::vector<double> ref(5000);
  std::vector<std::complex<double>> rx(5000);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    rx[i] = std::complex<double>(0.5 * ref[i] + rng.gaussian(0.0, 0.1),
                                 rng.gaussian(0.0, 0.1));
  }
  const double snr = estimate_snr_db(rx, ref);
  EXPECT_GT(snr, 5.0);
  EXPECT_LT(snr, 20.0);
}

TEST(Cfo, EstimateAndCorrect) {
  const double fs = 12000.0;
  const double cfo = 3.7;  // Hz
  std::vector<std::complex<double>> x(6000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ph = pab::kTwoPi * cfo * static_cast<double>(i) / fs;
    x[i] = std::polar(1.0, ph);
  }
  EXPECT_NEAR(estimate_cfo_hz(x, fs), cfo, 0.01);
}

TEST(Cfo, RobustToAmplitudeModulation) {
  pab::Rng rng(9);
  const double fs = 12000.0;
  const double cfo = -2.2;
  std::vector<std::complex<double>> x(6000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double am = 1.0 + 0.3 * ((i / 50) % 2 ? 1.0 : -1.0);
    const double ph = pab::kTwoPi * cfo * static_cast<double>(i) / fs;
    x[i] = am * std::polar(1.0, ph);
  }
  EXPECT_NEAR(estimate_cfo_hz(x, fs), cfo, 0.05);
}

}  // namespace
}  // namespace pab::phy
