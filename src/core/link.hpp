// End-to-end single-link waveform simulation:
// projector --CW--> (channel) --> node [recto-piezo backscatter] --> (channel)
// --> hydrophone --> software receiver.
//
// The simulation works per carrier in the complex-envelope domain (exact for
// these narrowband links), then reconstructs the real passband voltage the
// hydrophone would record, adds ambient noise, and hands it to the same
// receiver chain the paper's MATLAB decoder implements.
//
// For Monte-Carlo aggregates prefer the sim/ layer (sim::Scenario +
// sim::Session + sim::BatchRunner), which shares the tap and front-end
// response caches across trials and fans trials out over threads.  This class
// remains the single-trial engine underneath it.
#pragma once

#include <memory>
#include <optional>

#include "channel/propagation.hpp"
#include "channel/tapcache.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/projector.hpp"
#include "core/setup.hpp"
#include "dsp/signal.hpp"
#include "obs/metrics.hpp"
#include "phy/modem.hpp"
#include "phy/workspace.hpp"
#include "sim/waveform.hpp"
#include "util/rng.hpp"

namespace pab::core {

// The node's two backscatter states at a given carrier/bitrate: the complex
// scatter gains with the bandwidth-efficiency derating folded in.  Deriving
// these from a circuit::RectoPiezo walks the BVD + matching-network model;
// sim::Session memoizes them per (front end, carrier, bitrate).
struct ModulationStates {
  dsp::cplx g_reflective{};
  dsp::cplx g_absorptive{};
};

// Evaluate the recto-piezo frequency response at (carrier, bitrate).  The
// bitrate argument is the FM0-equivalent switching rate: non-FM0 schemes pass
// phy::scheme_descriptor(scheme).effective_bitrate(R) so the sideband
// derating tracks the actual switch toggle rate (identity for kFm0).
[[nodiscard]] ModulationStates modulation_states(const circuit::RectoPiezo& front_end,
                                                 double carrier_hz, double bitrate);

// True when an uplink run of `cfg` with a `packet_samples`-sample switch
// stream can be synthesized at `sample_rate`: node_start_s and tail_s are
// finite and non-negative, and the capture (node start, packet, tail) is
// shorter than 2^53 samples, so each sample count converts exactly.
[[nodiscard]] bool uplink_timing_ok(const sim::Waveform& cfg,
                                    std::size_t packet_samples,
                                    double sample_rate);

struct UplinkRunResult {
  dsp::Signal hydrophone_v;        // passband voltage capture [V]
  pab::Bits sent_bits;             // ground-truth bits after the preamble
  double incident_pressure_pa = 0; // CW amplitude at the node [Pa]
  double direct_pressure_pa = 0;   // direct-path CW amplitude at the hydrophone
  double modulation_pressure_pa = 0;  // backscatter swing at the hydrophone
};

class LinkSimulator {
 public:
  LinkSimulator(SimConfig config, Placement placement);
  // Share an external tap cache (one per sim::Session) so concurrent trials
  // reuse the same memoized image-method tap sets.
  LinkSimulator(SimConfig config, Placement placement,
                std::shared_ptr<channel::TapCache> tap_cache);

  // Simulate the node backscattering [uplink-preamble + data_bits] while the
  // projector transmits CW at `cfg.carrier_hz`.  Every run method draws its
  // noise from the caller's `rng` (deterministic substreams under
  // sim::BatchRunner), so one simulator can serve concurrent trials.
  [[nodiscard]] UplinkRunResult run_uplink(const Projector& projector,
                                           const circuit::RectoPiezo& front_end,
                                           std::span<const std::uint8_t> data_bits,
                                           const sim::Waveform& cfg,
                                           pab::Rng& rng) const;

  // Zero-allocation variant over precomputed modulation states: every
  // intermediate waveform (switch stream, CW envelope, propagated basebands,
  // scattered envelope) lives in the workspace arena for the duration of the
  // call; only `out` fields persist, and those reuse their capacity across
  // calls.  Bit-identical to run_uplink, which wraps this.
  void run_uplink_into(const Projector& projector, const ModulationStates& states,
                       std::span<const std::uint8_t> data_bits,
                       const sim::Waveform& cfg, pab::Rng& rng,
                       phy::Workspace& ws, UplinkRunResult& out) const;

  // Run + decode with the standard receiver.  Returns the demod result and
  // waveform-level ground truth, or the demodulator's error (no preamble,
  // decode failure) through pab::Expected -- there is no default-constructed
  // sentinel to inspect.
  struct DecodedRun {
    UplinkRunResult run;
    phy::DemodResult demod;
  };
  [[nodiscard]] pab::Expected<DecodedRun> run_and_decode(
      const Projector& projector, const circuit::RectoPiezo& front_end,
      std::span<const std::uint8_t> data_bits, const sim::Waveform& cfg,
      pab::Rng& rng) const;

  // Zero-allocation variant: synthesizes into out.run, decodes into
  // out.demod with the workspace's cached demodulator and arena scratch.
  // The success path performs no heap allocation once `out` and the
  // workspace have warmed up.  run_and_decode wraps this.
  [[nodiscard]] pab::Expected<bool> run_and_decode_into(
      const Projector& projector, const ModulationStates& states,
      std::span<const std::uint8_t> data_bits, const sim::Waveform& cfg,
      pab::Rng& rng, phy::Workspace& ws, DecodedRun& out) const;

  // CW amplitude [Pa] at the node position for a projector transmitting at
  // `freq_hz` (coherent multipath sum) -- the harvesting drive level.
  [[nodiscard]] double incident_pressure(const Projector& projector,
                                         double freq_hz) const;

  // Downlink: PWM query as received at the node -- returns the sliced
  // envelope stream the node's Schmitt trigger produces, for feeding
  // PabNode::receive_downlink.
  [[nodiscard]] std::vector<std::uint8_t> downlink_sliced_envelope(
      const Projector& projector, const phy::DownlinkQuery& query,
      const phy::PwmParams& pwm, double freq_hz) const;

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const Placement& placement() const { return placement_; }

  // Tap set for the (a -> b) path at `freq_hz`, memoized in the shared
  // channel::TapCache (each distinct geometry/carrier is computed once per
  // cache lifetime).
  [[nodiscard]] const std::vector<channel::PathTap>& taps(const channel::Vec3& a,
                                                          const channel::Vec3& b,
                                                          double freq_hz) const;

  // Attach a metrics registry: times the waveform synthesis and decode stages
  // (`core.link.*`, `phy.demod.*`) of every subsequent run, and inside
  // run_uplink_into each synthesis stage (`core.link.synth.*_seconds`:
  // switch, cw, taps -- one sample per tap convolution, three per run --
  // scatter, upconvert, noise).  The registry must outlive the simulator;
  // null detaches.
  void set_metrics(obs::MetricRegistry* metrics);

 private:
  SimConfig config_;
  Placement placement_;
  std::shared_ptr<channel::TapCache> tap_cache_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::Histogram* t_uplink_run_ = nullptr;   // waveform synthesis per trial
  obs::Histogram* t_decode_ = nullptr;       // full receiver chain per trial
  obs::Histogram* t_switch_ = nullptr;       // synthesis stages
  obs::Histogram* t_cw_ = nullptr;
  obs::Histogram* t_taps_ = nullptr;
  obs::Histogram* t_scatter_ = nullptr;
  obs::Histogram* t_upconvert_ = nullptr;
  obs::Histogram* t_noise_ = nullptr;
};

}  // namespace pab::core
