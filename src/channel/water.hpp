// Physical properties of the water medium.
//
// Sound speed follows Mackenzie (1981); absorption follows Thorp's formula.
// Both are the standard engineering models for underwater acoustics in the
// 10-20 kHz band the paper operates in.
#pragma once

namespace pab::channel {

struct WaterProperties {
  double temperature_c = 20.0;  // [Celsius]
  double salinity_ppt = 0.0;    // [parts per thousand]; 0 for tank fresh water
  double depth_m = 1.0;         // nominal depth of the link [m]
  double density = 998.0;       // [kg/m^3]
};

// Mackenzie (1981) nine-term sound speed equation [m/s].
// Valid for T in [-2, 30] C, S in [25, 40] ppt, depth to 8000 m; degrades
// gracefully for fresh water (S=0) where it stays within ~0.3% of measured
// values at tank depths.
[[nodiscard]] double sound_speed_mackenzie(const WaterProperties& w);

// Thorp absorption coefficient [dB/km] at `freq_hz` (power attenuation).
[[nodiscard]] double thorp_absorption_db_per_km(double freq_hz);

// One-way transmission loss [dB] over `distance_m` with spherical spreading
// plus Thorp absorption: TL = 20 log10(d) + alpha * d / 1000.
[[nodiscard]] double transmission_loss_db(double distance_m, double freq_hz);

// Linear amplitude gain over a path of `distance_m` (relative to the 1 m
// reference where source level is defined).
[[nodiscard]] double path_amplitude_gain(double distance_m, double freq_hz);

}  // namespace pab::channel
