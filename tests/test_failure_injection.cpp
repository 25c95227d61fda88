// Failure injection: the stack must degrade gracefully, not crash or accept
// corrupt data, under brownout, corruption, collisions, clock skew, deep
// fades, and misconfiguration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/link.hpp"
#include "core/projector.hpp"
#include "mac/protocol.hpp"
#include "mac/scheduler.hpp"
#include "node/node.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/scenario.hpp"

namespace pab {
namespace {

using core::LinkSimulator;
using core::Placement;
using core::Projector;
using core::SimConfig;
using sim::Waveform;

Projector strong_projector() {
  return Projector(piezo::make_projector_transducer(), 300.0);
}

TEST(FailureInjection, BrownoutSilencesNodeUntilRecharge) {
  sense::Environment env;
  node::PabNode node(node::NodeConfig{}, &env);
  // Charge up.
  node.cold_start(15000.0, 600.0, 50.0);
  ASSERT_TRUE(node.powered_up());

  // Projector goes silent while the node keeps backscattering: the 1000 uF
  // capacitor drains below brown-out.
  for (int i = 0; i < 4000 && node.powered_up(); ++i)
    node.harvest_step(0.01, 15000.0, 0.0, node::NodeState::kBackscattering);
  EXPECT_FALSE(node.powered_up());
  EXPECT_FALSE(node.process_query(phy::DownlinkQuery{}).has_value());

  // Carrier returns: the node recovers without intervention.
  node.cold_start(15000.0, 600.0, 50.0);
  EXPECT_TRUE(node.powered_up());
  phy::DownlinkQuery ping;
  ping.address = node.config().id;
  EXPECT_TRUE(node.process_query(ping).has_value());
}

TEST(FailureInjection, CorruptedDownlinkIsRejectedNotMisread) {
  sense::Environment env;
  node::PabNode node(node::NodeConfig{}, &env);
  node.cold_start(15000.0, 600.0, 50.0);
  ASSERT_TRUE(node.powered_up());

  phy::DownlinkQuery q;
  q.address = node.config().id;
  q.command = phy::Command::kReadPh;
  const double fs = 96000.0;
  auto wave = phy::pwm_encode(q.to_bits(), node.config().downlink_pwm, fs);
  // Chop a hole in the middle of the frame (projector dropout).
  const std::size_t hole_start = wave.size() / 3;
  const std::size_t hole_len = wave.size() / 6;
  std::fill(wave.begin() + static_cast<std::ptrdiff_t>(hole_start),
            wave.begin() + static_cast<std::ptrdiff_t>(hole_start + hole_len),
            std::uint8_t{0});
  const auto decoded = node.receive_downlink(wave, fs);
  // Either nothing decodes, or the checksum rejected a mangled frame; a
  // *wrong but accepted* command would be the failure.
  if (decoded.has_value()) {
    EXPECT_EQ(decoded->command, phy::Command::kReadPh);
    EXPECT_EQ(decoded->address, node.config().id);
  }
}

TEST(FailureInjection, PureNoiseRarelyTriggersPreambleDetector) {
  Rng rng(41);
  const phy::SchemeDemodulator demod{phy::SchemeConfig{}};
  int false_alarms = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> env(30000);
    for (auto& v : env) v = 1.0 + rng.gaussian(0.0, 0.05);
    const auto r = demod.demodulate_envelope(env, 96000.0, 32);
    if (r.ok()) ++false_alarms;
  }
  EXPECT_LE(false_alarms, 2) << "detector fires on noise too often";
}

TEST(FailureInjection, SchedulerRecoversFromNoiseBursts) {
  // A link that fails (CRC) on every other attempt: the scheduler's
  // retransmission brings overall delivery to 100%.
  mac::PollScheduler sched(mac::SchedulerConfig{2, 0.2, 0.02});
  int call = 0;
  const auto flaky = [&](const phy::DownlinkQuery&)
      -> Expected<phy::UplinkPacket> {
    if (++call % 2 == 1) return Error{ErrorCode::kCrcMismatch, "burst"};
    phy::UplinkPacket p;
    p.payload = {1};
    return p;
  };
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    if (sched.transact(mac::make_ping(1), flaky, 52, 1000.0).ok()) ++delivered;
  }
  EXPECT_EQ(delivered, 10);
  EXPECT_GE(sched.stats().retries, 5u);
}

TEST(FailureInjection, SameChannelCollisionCorruptsWithoutZf) {
  // Two nodes violating the FDMA plan (same 15 kHz channel, simultaneous):
  // the plain single-link receiver cannot decode reliably -- the failure mode
  // that motivates recto-piezo FDMA + collision decoding.
  SimConfig sc = sim::Scenario::pool_a().medium;
  Placement pl;
  LinkSimulator sim(sc, pl);
  const auto proj = strong_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(17);
  const auto bits1 = rng.bits(64);
  const auto bits2 = rng.bits(64);

  Waveform cfg;
  Rng noise1(sc.seed);
  auto run1 = sim.run_uplink(proj, fe, bits1, cfg, noise1);
  // Second node at comparable link strength, same channel, same time.
  Placement pl2 = pl;
  pl2.node = {0.9, 2.6, 0.65};
  LinkSimulator sim2(sc, pl2);
  Rng noise2(77);
  const auto run2 = sim2.run_uplink(proj, fe, bits2, cfg, noise2);
  run1.hydrophone_v.accumulate(run2.hydrophone_v);

  phy::DemodConfig dc;
  dc.sample_rate = sc.sample_rate;
  const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, dc});
  const auto r = demod.demodulate(run1.hydrophone_v, bits1.size());
  if (r.ok()) {
    const double ber1 = phy::bit_error_rate(bits1, r.value().bits);
    const double ber2 = phy::bit_error_rate(bits2, r.value().bits);
    // Capture effect: at best one stream survives; the other is starved.
    // (With MIMO+FDMA both decode -- see the collision tests.)
    EXPECT_GT(std::max(ber1, ber2), 0.1)
        << "both colliding streams decoded from one capture?";
  }
}

TEST(FailureInjection, ClockSkewToleratedByEnvelopeReceiver) {
  // +/-100 ppm sound-card skew (footnote 12's CFO source) must not break the
  // envelope-based decoder.
  for (double ppm : {-100.0, 100.0}) {
    SimConfig sc = sim::Scenario::pool_a().medium;
    sc.receiver_clock_offset_ppm = ppm;
    LinkSimulator sim(sc, Placement{});
    const auto proj = Projector(piezo::make_projector_transducer(), 50.0);
    const auto fe = circuit::make_recto_piezo(15000.0);
    Rng rng(23);
    const auto bits = rng.bits(64);
    Rng noise(sc.seed);
    const auto out = sim.run_and_decode(proj, fe, bits, Waveform{}, noise);
    ASSERT_TRUE(out.ok()) << "ppm=" << ppm;
    EXPECT_EQ(phy::bit_error_rate(bits, out.value().demod.bits), 0.0)
        << "ppm=" << ppm;
  }
}

TEST(FailureInjection, WrongBitrateAssumptionFailsCleanly) {
  SimConfig sc = sim::Scenario::pool_a().medium;
  LinkSimulator sim(sc, Placement{});
  const auto proj = Projector(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(29);
  const auto bits = rng.bits(64);
  Waveform cfg;
  cfg.bitrate = 1000.0;
  Rng noise(sc.seed);
  const auto run = sim.run_uplink(proj, fe, bits, cfg, noise);

  phy::DemodConfig dc;
  dc.sample_rate = sc.sample_rate;
  dc.bitrate = 2800.0;  // reader misconfigured
  const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, dc});
  const auto r = demod.demodulate(run.hydrophone_v, bits.size());
  if (r.ok()) {
    EXPECT_GT(phy::bit_error_rate(bits, r.value().bits), 0.1);
  }
}

TEST(FailureInjection, TruncatedCaptureReportsNoPreamble) {
  SimConfig sc = sim::Scenario::pool_a().medium;
  LinkSimulator sim(sc, Placement{});
  const auto proj = Projector(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  Rng rng(31);
  const auto bits = rng.bits(64);
  Rng noise(sc.seed);
  auto run = sim.run_uplink(proj, fe, bits, Waveform{}, noise);
  run.hydrophone_v.samples.resize(run.hydrophone_v.size() / 10);

  phy::DemodConfig dc;
  dc.sample_rate = sc.sample_rate;
  const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, dc});
  const auto r = demod.demodulate(run.hydrophone_v, bits.size());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNoPreamble);
}

TEST(FailureInjection, UndersampledCaptureFailsThroughExpected) {
  // The sample rate of a capture file is outside input: a 3 kHz recording of
  // a 1 kbps uplink has 1.5 samples per chip, which the receiver reports as
  // an Expected error instead of aborting the decoder.
  dsp::Signal capture;
  capture.sample_rate = 3000.0;
  capture.samples.assign(6000, 0.0);
  phy::DemodConfig dc;
  dc.sample_rate = capture.sample_rate;
  const auto packet = phy::demodulate_packet(capture, dc, /*payload_len=*/4);
  ASSERT_FALSE(packet.ok());
  EXPECT_EQ(packet.code(), ErrorCode::kInvalidArgument);
}

TEST(FailureInjection, NonFiniteEnvelopeSampleFailsThroughExpected) {
  // One NaN or Inf envelope sample used to pass as a decode: in the payload
  // a NaN chip error clamped the SNR to 60 dB (Inf to -60 dB) with wrong
  // bits, and in the preamble it moved the detected start off the packet.
  Rng rng(44);
  const auto bits = rng.bits(48);
  const phy::DemodConfig dc;  // FM0 at 1 kbps, 96 kHz
  const auto sw = phy::scheme_waveform(phy::SchemeId::kFm0, bits, dc.bitrate,
                                       dc.sample_rate);
  std::vector<double> env(700, 0.95);  // the packet starts at sample 700
  for (const auto s : sw)
    env.push_back(s == phy::SwitchState::kReflective ? 1.05 : 0.95);
  env.insert(env.end(), 700, 0.95);
  for (auto& v : env) v += rng.gaussian(0.0, 0.005);
  const phy::SchemeDemodulator demod{phy::SchemeConfig{}};
  const auto clean =
      demod.demodulate_envelope(env, dc.sample_rate, bits.size());
  ASSERT_TRUE(clean.ok()) << clean.error().message();
  EXPECT_EQ(clean.value().start_sample, 700u);
  EXPECT_EQ(clean.value().bits, bits);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t at : {std::size_t{800}, std::size_t{3000}})
    for (const double bad : {nan, inf, -inf}) {
      auto x = env;
      x[at] = bad;
      const auto r = demod.demodulate_envelope(x, dc.sample_rate, bits.size());
      ASSERT_FALSE(r.ok()) << "sample " << at << " = " << bad;
      EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument)
          << "sample " << at << " = " << bad;
    }
}

TEST(FailureInjection, BadPeripheralCommandLeavesNodeHealthy) {
  sense::Environment env;
  node::PabNode node(node::NodeConfig{}, &env);
  node.cold_start(15000.0, 600.0, 50.0);
  ASSERT_TRUE(node.powered_up());

  phy::DownlinkQuery bad;
  bad.command = phy::Command::kSetResonance;
  bad.argument = 200;  // out of range
  EXPECT_FALSE(node.process_query(bad).has_value());

  // The node still answers valid queries afterwards.
  phy::DownlinkQuery ping;
  ping.command = phy::Command::kPing;
  EXPECT_TRUE(node.process_query(ping).has_value());
}

}  // namespace
}  // namespace pab
