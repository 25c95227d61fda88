#include "core/collision.hpp"

#include <cmath>
#include <utility>

#include "dsp/mixer.hpp"
#include "phy/fm0.hpp"
#include "phy/metrics.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::core {
namespace {

// Expand a chip sequence (+/-1) to per-sample values, starting at sample
// `offset`, `spc` samples per chip; samples outside the burst are 0 (idle).
std::vector<double> expand_chips(const phy::Chips& chips, double spc,
                                 std::size_t offset, std::size_t total) {
  std::vector<double> out(total, 0.0);
  for (std::size_t i = offset; i < total; ++i) {
    const auto chip = static_cast<std::size_t>(
        static_cast<double>(i - offset) / spc);
    if (chip >= chips.size()) break;
    out[i] = static_cast<double>(chips[chip]);
  }
  return out;
}

// Remove the mean of a complex stream (the un-modulated carrier offset).
std::vector<dsp::cplx> remove_mean(std::vector<dsp::cplx> x) {
  // By value + in place: callers move the baseband in, avoiding a full copy.
  dsp::cplx mean{};
  for (const auto& v : x) mean += v;
  mean /= static_cast<double>(std::max<std::size_t>(x.size(), 1));
  for (auto& v : x) v -= mean;
  return x;
}

}  // namespace

CollisionSimulator::CollisionSimulator(SimConfig config, Placement placement,
                                       channel::Vec3 second_node_position)
    : config_(config),
      placement_(placement),
      node2_pos_(second_node_position),
      tap_cache_(std::make_shared<channel::TapCache>(
          config.tank, config.max_image_order, config.use_image_method)) {
  require(config_.tank.contains(second_node_position),
          "CollisionSimulator: node 2 outside tank");
}

CollisionRunResult CollisionSimulator::run(const Projector& projector,
                                           const circuit::RectoPiezo& node1,
                                           const circuit::RectoPiezo& node2,
                                           const CollisionRunConfig& cfg,
                                           pab::Rng& rng) const {
  const double fs = config_.sample_rate;
  const double spc = fs / (2.0 * cfg.bitrate);
  require(spc >= 4.0, "CollisionSimulator: too few samples per chip");

  // --- Frame layout (chip-aligned sections with guard gaps) -----------------
  const std::size_t tr_chips = 2 * cfg.training_bits;
  const std::size_t pl_chips = 2 * cfg.payload_bits;
  const std::size_t guard_chips = 8;
  const auto chip_samples = [&](std::size_t chips) {
    return static_cast<std::size_t>(std::ceil(static_cast<double>(chips) * spc));
  };
  const std::size_t lead = chip_samples(guard_chips);
  const std::size_t w1 = lead;                                     // node1 training
  const std::size_t w2 = w1 + chip_samples(tr_chips + guard_chips);  // node2 training
  const std::size_t w3 = w2 + chip_samples(tr_chips + guard_chips);  // payload
  const std::size_t total = w3 + chip_samples(pl_chips + guard_chips);

  // --- Per-node sequences ----------------------------------------------------
  const auto random_chips = [&](std::size_t n) {
    phy::Chips c(n);
    for (auto& v : c) v = rng.bernoulli(0.5) ? 1 : -1;
    return c;
  };
  const phy::Chips train1 = random_chips(tr_chips);
  const phy::Chips train2 = random_chips(tr_chips);
  const pab::Bits bits1 = rng.bits(cfg.payload_bits);
  const pab::Bits bits2 = rng.bits(cfg.payload_bits);
  const phy::Chips pay1 = phy::fm0_encode(bits1);
  const phy::Chips pay2 = phy::fm0_encode(bits2);

  // Per-sample state (+1 reflective / -1 absorptive / 0 idle=absorptive).
  std::vector<double> state1(total, 0.0), state2(total, 0.0);
  {
    const auto t1 = expand_chips(train1, spc, w1, total);
    const auto p1 = expand_chips(pay1, spc, w3, total);
    const auto t2 = expand_chips(train2, spc, w2, total);
    const auto p2 = expand_chips(pay2, spc, w3, total);
    for (std::size_t i = 0; i < total; ++i) {
      state1[i] = t1[i] + p1[i];
      state2[i] = t2[i] + p2[i];
    }
  }

  // --- Waveform synthesis per carrier ----------------------------------------
  const double duration = static_cast<double>(total) / fs;
  const std::array<const circuit::RectoPiezo*, 2> nodes{&node1, &node2};
  const std::array<channel::Vec3, 2> node_pos{placement_.node, node2_pos_};

  dsp::Signal capture;
  capture.sample_rate = fs;
  std::vector<std::vector<dsp::cplx>> y_env(2);  // per-carrier envelope at hydrophone

  for (std::size_t ci = 0; ci < 2; ++ci) {
    const double f = cfg.carriers_hz[ci];
    const dsp::BasebandSignal tx = projector.cw_envelope(f, duration, fs);
    const auto taps_ph =
        tap_cache_->taps(placement_.projector, placement_.hydrophone, f);
    dsp::BasebandSignal sum = channel::apply_taps_baseband(tx, *taps_ph);

    for (std::size_t nj = 0; nj < 2; ++nj) {
      const auto taps_pn = tap_cache_->taps(placement_.projector, node_pos[nj], f);
      const auto taps_nh = tap_cache_->taps(node_pos[nj], placement_.hydrophone, f);
      const dsp::BasebandSignal at_node = channel::apply_taps_baseband(tx, *taps_pn);
      const dsp::cplx g_r = nodes[nj]->scatter_gain(f, true);
      const dsp::cplx g_a = nodes[nj]->scatter_gain(f, false);
      const auto& st = nj == 0 ? state1 : state2;
      dsp::BasebandSignal scat;
      scat.sample_rate = fs;
      scat.carrier_hz = f;
      scat.samples.resize(at_node.size());
      for (std::size_t i = 0; i < at_node.size(); ++i) {
        const double s = i < st.size() ? st[i] : 0.0;
        scat.samples[i] = at_node.samples[i] * (s > 0.0 ? g_r : g_a);
      }
      sum.accumulate(channel::apply_taps_baseband(scat, *taps_nh));
    }
    y_env[ci] = std::move(sum.samples);
  }

  // Passband reconstruction + noise.
  std::size_t n = 0;
  for (const auto& e : y_env) n = std::max(n, e.size());
  capture.samples.resize(n);
  const double sens = config_.hydrophone.volts_per_pascal();
  const double noise_sd = config_.noise.sample_stddev_pa(fs);
  for (std::size_t i = 0; i < n; ++i) {
    double p = rng.gaussian(0.0, noise_sd);
    for (std::size_t ci = 0; ci < 2; ++ci) {
      if (i >= y_env[ci].size()) continue;
      const double ph = kTwoPi * cfg.carriers_hz[ci] * static_cast<double>(i) / fs;
      p += y_env[ci][i].real() * std::cos(ph) - y_env[ci][i].imag() * std::sin(ph);
    }
    capture.samples[i] = sens * p;
  }

  // --- Receiver ---------------------------------------------------------------
  const double cutoff = 2.5 * cfg.bitrate;
  std::array<std::vector<dsp::cplx>, 2> y;
  for (std::size_t ci = 0; ci < 2; ++ci) {
    dsp::BasebandSignal bb =
        dsp::downconvert_filtered(capture, cfg.carriers_hz[ci], cutoff, 5);
    y[ci] = remove_mean(std::move(bb.samples));
  }

  // Alignment: the node modulates on its local clock, so the state pattern
  // reaches the hydrophone delayed by the node->hydrophone leg only (plus
  // the receive filter's group delay, found by the refinement search below).
  const double c_sound = channel::sound_speed_mackenzie(config_.tank.water);
  std::array<std::size_t, 2> delay{};
  for (std::size_t nj = 0; nj < 2; ++nj) {
    const double d = channel::distance(node_pos[nj], placement_.hydrophone);
    delay[nj] = static_cast<std::size_t>(std::lround(d / c_sound * fs));
  }

  const auto window = [&](const std::vector<dsp::cplx>& stream, std::size_t start,
                          std::size_t len, std::size_t shift) {
    std::vector<dsp::cplx> out(len, dsp::cplx{});
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t idx = start + shift + i;
      if (idx < stream.size()) out[i] = stream[idx];
    }
    return out;
  };

  const std::size_t tr_len = chip_samples(tr_chips);
  const std::size_t pl_len = chip_samples(pl_chips);
  const auto ref_train1 = expand_chips(train1, spc, 0, tr_len);
  const auto ref_train2 = expand_chips(train2, spc, 0, tr_len);
  const auto ref_pay1 = expand_chips(pay1, spc, 0, pl_len);
  const auto ref_pay2 = expand_chips(pay2, spc, 0, pl_len);

  // Refine each node's alignment around the geometric delay: the receive
  // low-pass adds group delay the geometry does not know about.  Search a
  // few chips of extra shift for the strongest training correlation.
  const auto refine = [&](const std::vector<dsp::cplx>& stream, std::size_t wstart,
                          const std::vector<double>& ref, std::size_t base) {
    std::size_t best = base;
    double best_m = -1.0;
    const auto span_max = base + static_cast<std::size_t>(3.0 * spc);
    for (std::size_t s = base; s <= span_max; ++s) {
      const auto w = window(stream, wstart, ref.size(), s);
      dsp::cplx acc{};
      for (std::size_t i = 0; i < ref.size(); ++i) acc += w[i] * ref[i];
      const double m = std::abs(acc);
      if (m > best_m) { best_m = m; best = s; }
    }
    return best;
  };
  delay[0] = refine(y[0], w1, ref_train1, delay[0]);
  delay[1] = refine(y[1], w2, ref_train2, delay[1]);

  // Channel estimation from the staggered training sections.
  phy::Mat2c h;
  h.h11 = phy::estimate_channel_gain(window(y[0], w1, tr_len, delay[0]), ref_train1);
  h.h21 = phy::estimate_channel_gain(window(y[1], w1, tr_len, delay[0]), ref_train1);
  h.h12 = phy::estimate_channel_gain(window(y[0], w2, tr_len, delay[1]), ref_train2);
  h.h22 = phy::estimate_channel_gain(window(y[1], w2, tr_len, delay[1]), ref_train2);

  CollisionRunResult result;
  result.channel = h;
  result.condition_number = h.condition_number();

  // Chip-matched filtering: integrate each stream over chip periods before
  // measuring SINR or decoding, as the paper's offline receiver does.  The
  // per-chip references are the raw chip sequences.
  const auto integrate = [&](const std::vector<dsp::cplx>& x) {
    std::vector<dsp::cplx> out(pl_chips, dsp::cplx{});
    for (std::size_t c = 0; c < pl_chips; ++c) {
      const auto lo = static_cast<std::size_t>(
          std::lround(static_cast<double>(c) * spc));
      const auto hi = static_cast<std::size_t>(
          std::lround(static_cast<double>(c + 1) * spc));
      dsp::cplx acc{};
      std::size_t cnt = 0;
      for (std::size_t i = lo; i < hi && i < x.size(); ++i) { acc += x[i]; ++cnt; }
      out[c] = cnt ? acc / static_cast<double>(cnt) : dsp::cplx{};
    }
    return out;
  };
  const std::vector<double> chip_ref1(pay1.begin(), pay1.end());
  const std::vector<double> chip_ref2(pay2.begin(), pay2.end());

  // SINR before projection: each node read off "its" carrier directly.
  const auto y1_chips = integrate(window(y[0], w3, pl_len, delay[0]));
  const auto y2_chips = integrate(window(y[1], w3, pl_len, delay[1]));
  result.sinr_before_db[0] = phy::measure_sinr_db(y1_chips, chip_ref1);
  result.sinr_before_db[1] = phy::measure_sinr_db(y2_chips, chip_ref2);

  // Zero-forcing on the payload section (each node's own alignment for its
  // output stream), then chip integration.
  const auto zf0 = phy::zero_force(window(y[0], w3, pl_len, delay[0]),
                                   window(y[1], w3, pl_len, delay[0]), h);
  const auto zf1 = phy::zero_force(window(y[0], w3, pl_len, delay[1]),
                                   window(y[1], w3, pl_len, delay[1]), h);
  const auto x1_chips = integrate(zf0.x1);
  const auto x2_chips = integrate(zf1.x2);
  result.sinr_after_db[0] = phy::measure_sinr_db(x1_chips, chip_ref1);
  result.sinr_after_db[1] = phy::measure_sinr_db(x2_chips, chip_ref2);

  // Decode the concurrent payloads from the ZF chip streams.
  const auto decode_ber = [&](const std::vector<dsp::cplx>& chips,
                              const pab::Bits& truth) {
    std::vector<double> soft(chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i) soft[i] = chips[i].real();
    const pab::Bits decoded = phy::fm0_decode_ml(soft);
    return phy::bit_error_rate(truth, decoded);
  };
  result.ber_after[0] = decode_ber(x1_chips, bits1);
  result.ber_after[1] = decode_ber(x2_chips, bits2);
  return result;
}

}  // namespace pab::core
