// pabctl: command-line driver for the PAB simulator.
//
//   pabctl link    [--pool A|B] [--bitrate N] [--drive V] [--carrier HZ]
//                  [--bits N] [--seed S] [--equalize]
//   pabctl harvest [--match HZ] [--pressure PA]
//   pabctl range   [--pool A|B] [--drive V]
//   pabctl sense   [--pool A|B] [--ph X] [--temp C] [--pressure MBAR]
//                  [--drive V]
//   pabctl decode  --file CAPTURE.wav [--carrier HZ] [--bitrate N]
//                  [--payload BYTES]
//   pabctl info
//
// Every subcommand runs the same library code the tests and benches use.  A
// flag that takes a value but is given none, a flag value that is not a
// finite number (or, for a count, not a whole number in range), and a value
// the models reject, is a usage error: the message goes to stderr and pabctl
// exits 2.
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "channel/tank.hpp"
#include "core/transact.hpp"
#include "core/projector.hpp"
#include "dsp/wav.hpp"
#include "energy/harvester.hpp"
#include "energy/mcu.hpp"
#include "mac/protocol.hpp"
#include "node/node.hpp"
#include "phy/metrics.hpp"
#include "piezo/design.hpp"
#include "sim/scenario.hpp"
#include "parse_numbers.hpp"

namespace {

using namespace pab;

// --- tiny flag parser ---------------------------------------------------------

// Largest --bits: 41 s of signal at 100 bps.
constexpr std::uint64_t kMaxLinkBits = 4096;
// Largest --payload: the packet's one-byte length field.
constexpr std::uint64_t kMaxPayloadBytes = 255;

struct Args {
  // A flag given without a value (a switch such as --equalize) maps to
  // nullopt.
  std::map<std::string, std::optional<std::string>> kv;
  bool has(const std::string& key) const { return kv.count(key) != 0; }
  // The value of a flag that takes one, or null when the flag is absent;
  // throws std::invalid_argument (a usage error) when it was given bare.
  const std::string* value(const std::string& key) const {
    auto it = kv.find(key);
    if (it == kv.end()) return nullptr;
    if (!it->second)
      throw std::invalid_argument("bad --" + key + " (want a value)");
    return &*it->second;
  }
  // A finite number; throws std::invalid_argument otherwise.
  double num(const std::string& key, double fallback) const {
    const std::string* text = value(key);
    if (text == nullptr) return fallback;
    double v = 0.0;
    if (!cli::parse_decimal(*text, v))
      throw std::invalid_argument("bad --" + key + " (want a finite number): " +
                                  *text);
    return v;
  }
  // A whole number in [0, max]; throws std::invalid_argument otherwise.
  std::uint64_t count(const std::string& key, std::uint64_t fallback,
                      std::uint64_t max) const {
    const std::string* text = value(key);
    if (text == nullptr) return fallback;
    std::uint64_t v = 0;
    if (!cli::parse_count(text->c_str(), max, v))
      throw std::invalid_argument("bad --" + key + " (want a whole number, at most " +
                                  std::to_string(max) + "): " + *text);
    return v;
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const std::string* text = value(key);
    return text == nullptr ? fallback : *text;
  }
};

Args parse(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = std::nullopt;
    }
  }
  return a;
}

sim::Scenario pool_config(const Args& a) {
  return a.str("pool", "A") == "B" ? sim::Scenario::pool_b()
                                    : sim::Scenario::pool_a();
}

// --- subcommands ----------------------------------------------------------------

int cmd_link(const Args& a) {
  const sim::Scenario scenario = pool_config(a);
  core::SimConfig sc = scenario.medium;
  sc.seed = a.count("seed", 42, cli::kAnyCount);
  core::LinkSimulator sim(sc, scenario.placement());
  const core::Projector proj(piezo::make_projector_transducer(),
                             a.num("drive", 50.0));
  const auto fe = circuit::make_recto_piezo(a.num("carrier", 15000.0));
  Rng rng(sc.seed);
  const auto bits = rng.bits(a.count("bits", 96, kMaxLinkBits));
  sim::Waveform cfg;
  cfg.carrier_hz = a.num("carrier", 15000.0);
  cfg.bitrate = a.num("bitrate", 1000.0);
  Rng noise(sc.seed);
  const auto run = sim.run_uplink(proj, fe, bits, cfg, noise);

  phy::DemodConfig dc;
  dc.carrier_hz = cfg.carrier_hz;
  dc.bitrate = cfg.bitrate;
  dc.sample_rate = sc.sample_rate;
  dc.decision_directed_equalizer = a.has("equalize");
  const auto r = phy::SchemeDemodulator({phy::SchemeId::kFm0, dc})
                     .demodulate(run.hydrophone_v, bits.size());
  std::printf("incident at node : %8.2f Pa\n", run.incident_pressure_pa);
  std::printf("carrier at hydro : %8.2f Pa\n", run.direct_pressure_pa);
  std::printf("modulation       : %8.4f Pa\n", run.modulation_pressure_pa);
  if (!r.ok()) {
    std::printf("decode           : FAILED (%s)\n", r.error().message().c_str());
    return 1;
  }
  std::printf("preamble corr    : %8.3f\n", r.value().preamble_corr);
  std::printf("chip SNR         : %8.1f dB\n", r.value().snr_db);
  std::printf("BER              : %8.4f\n",
              phy::bit_error_rate(bits, r.value().bits));
  return 0;
}

int cmd_harvest(const Args& a) {
  const auto fe = circuit::make_recto_piezo(a.num("match", 15000.0));
  const double p = a.num("pressure", 80.0);
  std::printf("f [kHz]  Vrect [V]  harvest [uW]  |G_abs|\n");
  for (double f = 11000.0; f <= 21000.0 + 1.0; f += 500.0) {
    std::printf("%6.1f   %8.2f   %10.2f   %6.3f\n", f / 1000.0,
                fe.rectified_open_voltage(f, p),
                fe.harvested_dc_power(f, p) * 1e6,
                std::abs(fe.gamma_absorptive(f)));
  }
  return 0;
}

int cmd_range(const Args& a) {
  const core::SimConfig sc = pool_config(a).medium;
  const core::Projector proj(piezo::make_projector_transducer(),
                             a.num("drive", 200.0));
  const auto fe = circuit::make_recto_piezo(15000.0);
  const energy::McuPowerModel mcu;
  const bool pool_b = a.str("pool", "A") == "B";
  const channel::Vec3 start = pool_b ? channel::Vec3{0.6, 0.2, 0.5}
                                     : channel::Vec3{0.2, 0.2, 0.65};
  const channel::Vec3 dir = pool_b ? channel::Vec3{0.0, 1.0, 0.0}
                                   : channel::Vec3{0.555, 0.74, 0.0};
  const double max_d = pool_b ? 9.6 : 4.6;
  std::printf("d [m]  incident [Pa]  harvest [uW]  powered\n");
  for (double d = 0.4; d <= max_d; d += 0.4) {
    const channel::Vec3 rx{start.x + dir.x * d, start.y + dir.y * d, start.z};
    if (!sc.tank.contains(rx)) break;
    const auto taps = channel::image_method_taps(sc.tank, start, rx, 2, 15000.0);
    const double p = proj.pressure_at_1m(15000.0) *
                     channel::coherent_gain(taps, 15000.0);
    const bool up = fe.rectified_open_voltage(15000.0, p) >=
                        energy::Harvester::kPowerUpThresholdV &&
                    fe.harvested_dc_power(15000.0, p) >= mcu.idle_power_w();
    std::printf("%5.1f  %12.1f  %11.1f  %s\n", d, p,
                fe.harvested_dc_power(15000.0, p) * 1e6, up ? "yes" : "no");
  }
  return 0;
}

int cmd_sense(const Args& a) {
  sense::Environment env;
  env.ph = a.num("ph", 7.0);
  env.temperature_c = a.num("temp", 20.0);
  env.pressure_mbar = a.num("pressure", 1013.25);

  const sim::Scenario scenario = pool_config(a);
  const core::SimConfig& sc = scenario.medium;
  const core::LinkSimulator sim(sc, scenario.placement());
  const core::Projector proj(piezo::make_projector_transducer(),
                             a.num("drive", 300.0));
  node::NodeConfig ncfg;
  ncfg.node_depth_m = 0.0;
  node::PabNode node(ncfg, &env);
  node.cold_start(15000.0, sim.incident_pressure(proj, 15000.0), 120.0);
  if (!node.powered_up()) {
    std::printf("node failed to power up; raise --drive\n");
    return 1;
  }
  const phy::Command commands[] = {phy::Command::kReadPh,
                                   phy::Command::kReadTemperature,
                                   phy::Command::kReadPressure};
  Rng noise(sc.seed);
  for (phy::Command c : commands) {
    phy::DownlinkQuery q;
    q.address = ncfg.id;
    q.command = c;
    const auto packet = core::transact(sim, proj, node, q, 15000.0, noise);
    if (!packet.ok()) continue;
    const auto reading = mac::parse_response(q, packet.value());
    if (reading)
      std::printf("%-12s = %10.2f %s\n",
                  c == phy::Command::kReadPh          ? "pH"
                  : c == phy::Command::kReadTemperature ? "temperature"
                                                         : "pressure",
                  reading->value, reading->unit.c_str());
  }
  return 0;
}

int cmd_decode(const Args& a) {
  const std::string file = a.str("file", "");
  if (file.empty()) {
    std::printf("decode requires --file CAPTURE.wav\n");
    return 1;
  }
  auto capture = dsp::read_wav(file);
  if (!capture.ok()) {
    std::printf("cannot read %s: %s\n", file.c_str(),
                capture.error().message().c_str());
    return 1;
  }
  phy::DemodConfig dc;
  dc.carrier_hz = a.num("carrier", 15000.0);
  dc.bitrate = a.num("bitrate", 1000.0);
  dc.sample_rate = capture.value().sample_rate;
  const auto payload_len = a.count("payload", 4, kMaxPayloadBytes);
  const auto packet =
      phy::demodulate_packet(capture.value(), dc, payload_len);
  if (!packet.ok()) {
    std::printf("decode failed: %s\n", packet.error().message().c_str());
    return 1;
  }
  std::printf("node %u payload:", packet.value().node_id);
  for (auto b : packet.value().payload) std::printf(" %02X", b);
  std::printf("  (CRC ok)\n");
  return 0;
}

int cmd_info(const Args&) {
  const auto node = piezo::make_node_transducer();
  const auto g = piezo::design_cylinder_for(17000.0);
  const auto loaded = piezo::water_loaded_design(g);
  const energy::McuPowerModel mcu;
  std::printf("PAB model parameters\n");
  std::printf("  cylinder: radius %.1f mm, length %.1f mm, wall %.1f mm\n",
              g.mean_radius_m * 1e3, g.length_m * 1e3,
              g.wall_thickness_m * 1e3);
  std::printf("  in-air resonance  : %.1f kHz\n",
              piezo::in_air_resonance_hz(g) / 1e3);
  std::printf("  water-loaded      : %.1f kHz, Q %.1f\n",
              loaded.resonance_hz / 1e3, loaded.loaded_q);
  std::printf("  node BVD          : C0 %.1f nF, Rm %.0f ohm, keff %.2f\n",
              node.bvd().c0 * 1e9, node.bvd().rm, node.bvd().coupling_keff());
  std::printf("  power model       : idle %.0f uW, backscatter %.0f uW @1kbps\n",
              mcu.idle_power_w() * 1e6, mcu.backscatter_power_w(1000.0) * 1e6);
  std::printf("  power-up threshold: %g V on a 1000 uF supercapacitor\n",
              energy::Harvester::kPowerUpThresholdV);
  return 0;
}

void usage() {
  std::printf(
      "pabctl <link|harvest|range|sense|decode|info> [--flags]\n"
      "  link    --pool A|B --bitrate N --drive V --carrier HZ --bits N\n"
      "          --seed S --equalize\n"
      "  harvest --match HZ --pressure PA\n"
      "  range   --pool A|B --drive V\n"
      "  sense   --pool A|B --ph X --temp C --pressure MBAR --drive V\n"
      "  decode  --file CAPTURE.wav --carrier HZ --bitrate N --payload BYTES\n"
      "  info\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  try {
    if (cmd == "link") return cmd_link(args);
    if (cmd == "harvest") return cmd_harvest(args);
    if (cmd == "range") return cmd_range(args);
    if (cmd == "sense") return cmd_sense(args);
    if (cmd == "decode") return cmd_decode(args);
    if (cmd == "info") return cmd_info(args);
  } catch (const std::invalid_argument& e) {
    // A malformed flag value, or one a model's require() rejects.
    std::fprintf(stderr, "pabctl: %s\n", e.what());
    return 2;
  }
  usage();
  return 1;
}
