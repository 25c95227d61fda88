// Bitrate adaptation for PAB links.
//
// The downlink protocol already carries a kSetBitrate command (paper
// section 5.1a) and the MCU exposes a table of clock-divider rates
// (section 6.1b).  This controller closes the loop: it walks a ladder of
// (scheme, bitrate) rungs using the receiver's link estimates and CRC
// outcomes, with hysteresis so a marginal link does not oscillate -- the
// standard backscatter reader-side rate adaptation the paper leaves to the
// reader implementation.
//
// Headroom is always measured over the *current rung's scheme* decode floor
// (phy::scheme_descriptor).  observe(snr_db, crc_ok) feeds a raw SNR
// estimate; observe_quality(LinkQuality, crc_ok) feeds soft post-decode
// metrics -- MER headroom with EVM gates -- so the controller reacts before
// the link degrades to CRC failures (which remain the hard backstop).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "energy/mcu.hpp"
#include "phy/modem.hpp"
#include "phy/scheme_id.hpp"
#include "util/error.hpp"

namespace pab::mac {

// One rung of the modulation ladder: a scheme plus its switch-clock (symbol)
// rate -- the kSetBitrate currency the MCU's clock dividers actually set.
// Delivered data rate is bitrate * bits_per_symbol, and rungs must be ordered
// by strictly increasing delivered rate: index 0 is the most robust.
struct LadderRung {
  phy::SchemeId scheme = phy::SchemeId::kFm0;
  double bitrate = 0.0;  // symbol (switch-clock) rate [Hz]
};

// One FM0 rung per clock-divider bitrate, in the given order.
[[nodiscard]] std::vector<LadderRung> fm0_ladder(std::span<const double> bitrates);

struct RateControlConfig {
  // The walk, most robust rung first.  Default: FM0 at the MCU's ten
  // clock-divider rates.
  std::vector<LadderRung> ladder = fm0_ladder(energy::kClockDividerBitrates);
  // Margins [dB] over the current rung's scheme decode floor (FM0: ~2 dB,
  // Fig. 7): upshift when headroom clears `up_margin`, downshift when it
  // falls within `down_margin`.
  double up_margin_db = 9.0;    // BER ~1e-5 at floor+9 (Fig. 7)
  double down_margin_db = 3.0;
  // Consecutive observations required before moving (hysteresis).
  int up_streak = 3;
  int down_streak = 1;
  // CRC failures force an immediate downshift.
  bool downshift_on_crc_failure = true;
  // EVM gates for observe_quality: an upshift additionally needs evm_rms <=
  // evm_upshift_max, while evm_rms >= evm_backstop counts as a bad
  // observation no matter what MER says (EVM saturates before MER when the
  // error distribution grows heavy tails).
  double evm_upshift_max = 0.25;
  double evm_backstop = 0.7;
};

class RateController {
 public:
  explicit RateController(RateControlConfig config = {},
                          std::size_t initial_index = 0);

  // Feed one uplink SNR estimate; returns true if the rate changed.  Only an
  // observation with `crc_ok` can extend the upshift streak; a CRC failure
  // resets it (and forces a downshift step when configured to).
  bool observe(double snr_db, bool crc_ok);

  // Soft link-quality metrics from the demodulator plus the CRC outcome.
  // Same hysteresis/streak rules as observe(), with the EVM gates on top.
  bool observe_quality(const phy::LinkQuality& quality, bool crc_ok);

  [[nodiscard]] std::size_t rate_index() const { return index_; }
  [[nodiscard]] const LadderRung& rung() const { return config_.ladder[index_]; }
  [[nodiscard]] double rate_bps() const { return rung().bitrate; }
  [[nodiscard]] phy::SchemeId scheme() const { return rung().scheme; }
  [[nodiscard]] const RateControlConfig& config() const { return config_; }

  // Statistics for reporting.
  [[nodiscard]] std::size_t upshifts() const { return upshifts_; }
  [[nodiscard]] std::size_t downshifts() const { return downshifts_; }

 private:
  // Shared hysteresis step behind both observation entry points; `level_db`
  // is the SNR or MER the headroom is measured from.
  bool step(double level_db, bool crc_ok, bool evm_allows_up,
            bool evm_forces_down);

  RateControlConfig config_;
  std::size_t index_;
  int good_streak_ = 0;
  int bad_streak_ = 0;
  std::size_t upshifts_ = 0;
  std::size_t downshifts_ = 0;
};

}  // namespace pab::mac
