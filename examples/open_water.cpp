// Open-water deployment study (paper section 8: rivers, lakes, oceans).
//
// Moves PAB out of the test tank: free-field spreading, Wenz ambient noise
// as a function of sea state, power-up and uplink budgets vs range, the
// Doppler a drifting node imposes, and the fading a heaving surface adds to
// a shallow link.
#include <cstdio>

#include "channel/noise.hpp"
#include "channel/timevarying.hpp"
#include "channel/water.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/projector.hpp"
#include "energy/harvester.hpp"
#include "util/units.hpp"

int main() {
  using namespace pab;
  constexpr double kCarrier = 15000.0;
  constexpr double kBitrate = 1000.0;

  std::printf("PAB in open water\n=================\n\n");

  // Sea-state dependent noise at the operating band.
  std::printf("ambient noise at 15 kHz (Wenz):\n");
  std::printf("  calm (2 m/s wind):   %.1f dB re uPa^2/Hz\n",
              channel::wenz_noise_psd_db(kCarrier, 0.3, 2.0));
  std::printf("  moderate (8 m/s):    %.1f dB re uPa^2/Hz\n",
              channel::wenz_noise_psd_db(kCarrier, 0.5, 8.0));
  std::printf("  storm (18 m/s):      %.1f dB re uPa^2/Hz\n\n",
              channel::wenz_noise_psd_db(kCarrier, 0.7, 18.0));

  // Link budgets vs range, free field.
  const core::Projector projector(piezo::make_projector_transducer(), 350.0);
  const auto node = circuit::make_recto_piezo(15000.0);
  const double p1m = projector.pressure_at_1m(kCarrier);
  const channel::NoiseModel noise = channel::sea_noise(kCarrier, 0.5, 8.0);
  const double noise_rms = noise.rms_pressure_pa(2.0 * kBitrate);

  std::printf("projector at 350 V: %.0f Pa @ 1 m (SL %.1f dB re uPa)\n\n", p1m,
              projector.drive_voltage() > 0
                  ? spl_db_re_upa(p1m / std::numbers::sqrt2)
                  : 0.0);
  std::printf("range [m]  incident [Pa]  harvest [uW]  power-up  uplink SNR [dB]\n");
  double max_powerup = 0.0, max_uplink = 0.0;
  for (double d = 1.0; d <= 256.0; d *= 2.0) {
    const double g = channel::path_amplitude_gain(d, kCarrier);
    const double incident = p1m * g;
    const double harvest = node.harvested_dc_power(kCarrier, incident);
    const bool up = energy::Harvester::sustains_power_up(
        node.rectified_open_voltage(kCarrier, incident), harvest);
    const double mod_at_rx = incident * node.modulation_depth(kCarrier) * g;
    const double snr = db_from_amplitude_ratio(
        (mod_at_rx / std::numbers::sqrt2) / noise_rms);
    if (up) max_powerup = d;
    if (snr >= 2.0) max_uplink = d;
    std::printf("%8.0f   %11.2f   %10.2f   %-8s  %8.1f\n", d, incident,
                harvest * 1e6, up ? "yes" : "no", snr);
  }
  std::printf("\npower-up range: ~%.0f m; uplink-limited range: ~%.0f m\n",
              max_powerup, max_uplink);
  std::printf("(the energy budget, not the uplink SNR, gates battery-free\n"
              " operation -- the paper's motivation for battery-assisted\n"
              " hybrids in deep water)\n\n");

  // Mobility: a node drifting with a current.
  channel::MovingPathConfig drift;
  drift.source = {0, 0, 0};
  drift.rx_start = {50.0, 0, 0};
  drift.rx_velocity = {-0.5, 0, 0};
  std::printf("a 0.5 m/s drift imposes %.1f Hz of Doppler at 15 kHz\n",
              channel::doppler_shift_at(drift, kCarrier, 0.0));

  // Waves on a shallow link.
  channel::WavySurfaceConfig waves;
  waves.source = {0, 0, 2.0};
  waves.receiver = {30.0, 0, 2.0};
  waves.surface_z = 5.0;
  waves.wave_amplitude = 0.25;
  std::printf("0.25 m swell on a 30 m shallow link: %.1f dB fade depth\n",
              channel::fade_depth_db(waves, kCarrier));
  std::printf("-> interleaving/retransmission headroom the MAC must budget.\n");
  return 0;
}
