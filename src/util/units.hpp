// Strong unit helpers and physical constants used across the PAB stack.
//
// The library passes plain `double` in SI units at module boundaries; these
// helpers make conversions explicit and self-documenting instead of scattering
// magic factors through the code.
#pragma once

#include <cmath>
#include <numbers>

namespace pab {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Reference sound pressure for underwater acoustics (1 micropascal).
inline constexpr double kRefPressurePa = 1e-6;

// Nominal density of fresh water at ~20 C [kg/m^3].
inline constexpr double kWaterDensity = 998.0;

// Nominal sound speed in fresh water at ~20 C [m/s]; precise values come from
// pab::channel::sound_speed_mackenzie.
inline constexpr double kNominalSoundSpeed = 1481.0;

// --- Decibel helpers ------------------------------------------------------

// Power ratio -> dB.  `ratio` must be > 0.
[[nodiscard]] inline double db_from_power_ratio(double ratio) {
  return 10.0 * std::log10(ratio);
}

// Amplitude ratio -> dB.
[[nodiscard]] inline double db_from_amplitude_ratio(double ratio) {
  return 20.0 * std::log10(ratio);
}

[[nodiscard]] inline double power_ratio_from_db(double db) {
  return std::pow(10.0, db / 10.0);
}

[[nodiscard]] inline double amplitude_ratio_from_db(double db) {
  return std::pow(10.0, db / 20.0);
}

// Sound pressure level re 1 uPa of an RMS pressure in pascal.
[[nodiscard]] inline double spl_db_re_upa(double pressure_rms_pa) {
  return db_from_amplitude_ratio(pressure_rms_pa / kRefPressurePa);
}

[[nodiscard]] inline double pressure_pa_from_spl(double spl_db) {
  return kRefPressurePa * amplitude_ratio_from_db(spl_db);
}

// Wavelength of an acoustic signal.
[[nodiscard]] inline double wavelength(double frequency_hz,
                                       double sound_speed = kNominalSoundSpeed) {
  return sound_speed / frequency_hz;
}

}  // namespace pab
