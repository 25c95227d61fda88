// FDMA channel planning for recto-piezo networks.
//
// Different sensors are built (or programmed, via their matching bank) to
// resonate on different channels; the projector transmits all active carriers
// at once and the hydrophone separates the concurrent backscatter streams
// (paper sections 3.3.1-3.3.2).  The plan must respect the transducer's
// usable mechanical band and the per-channel bandwidth the recto-piezo
// matching provides.
#pragma once

#include <vector>

#include "circuit/rectopiezo.hpp"

namespace pab::mac {

struct ChannelPlan {
  std::vector<double> carriers_hz;  // the distinct concurrent channels
  std::size_t requested = 0;        // node count the plan was asked for
  std::size_t reuse_factor = 1;     // ceil(requested / channels): sequential
                                    // rounds (or reusing zones) per carrier

  [[nodiscard]] std::size_t channels() const { return carriers_hz.size(); }
  // Carrier assigned to node/zone slot `i` under round-robin reuse.
  [[nodiscard]] double carrier_for(std::size_t i) const {
    return carriers_hz[i % carriers_hz.size()];
  }
};

// Greedy plan over the 15-18 kHz band, where the paper's two concurrent
// channels sit inside the cylinder's usable mechanical band: as many
// channels as fit 2.5 kHz apart (the recto-piezo bandwidth plus a guard),
// spread edge to edge, or one at mid-band for a single node.  When `n_nodes`
// exceeds the channel count the band can hold, the plan is *oversubscribed*
// rather than an error: it carries every channel that fits plus the reuse
// factor callers need to schedule the surplus (round-robin via carrier_for,
// or spatial reuse across non-interfering zones).  Plans for n_nodes within
// capacity are one carrier per node, reuse_factor == 1.
[[nodiscard]] ChannelPlan plan_channels(std::size_t n_nodes);

// Receiver rejection of off-carrier backscatter.  The hydrophone separates
// concurrent FDMA streams with per-carrier filters; a transmitter on another
// carrier leaks into the receive band attenuated by the filter skirt.  The
// mask is the usual piecewise-linear idealization: no rejection inside the
// passband around the receive carrier, a linear roll-off beyond it, and a
// finite stopband floor (real filters never reject infinitely).
struct RejectionMask {
  double passband_hz = 1000.0;      // |f_tx - f_rx| <= passband: 0 dB
  double slope_db_per_khz = 30.0;   // roll-off beyond the passband edge
  double floor_db = 40.0;           // ultimate stopband rejection
};

// Rejection in dB (>= 0) the receive filter at `rx_hz` applies to a
// transmitter at `tx_hz`.  0 dB co-channel, capped at `floor_db`.
[[nodiscard]] double rejection_db(const RejectionMask& mask, double tx_hz,
                                  double rx_hz);

// The same rejection as a linear power factor 10^(-db/10) in (0, 1]:
// multiply an interferer's received power by this before summing it into a
// SINR denominator.
[[nodiscard]] double rejection_power_factor(const RejectionMask& mask,
                                            double tx_hz, double rx_hz);

// Cross-talk matrix entry [i][j]: modulation depth of a node matched at
// carrier j when illuminated at carrier i, normalized by its on-channel
// depth.  Quantifies how frequency-agnostic backscatter couples channels
// (the reason collisions must be decoded rather than filtered).
[[nodiscard]] std::vector<std::vector<double>> crosstalk_matrix(
    const ChannelPlan& plan, double mechanical_resonance_hz = 16500.0);

// Ideal network throughput of `n` concurrent channels at `per_link_bps`,
// versus TDMA on one channel (`1/n` share each): the FDMA gain the paper
// demonstrates for n = 2.
[[nodiscard]] double fdma_throughput_bps(std::size_t n, double per_link_bps);
[[nodiscard]] double tdma_throughput_bps(std::size_t n, double per_link_bps);

}  // namespace pab::mac
