#include "core/network.hpp"

#include <cmath>
#include <utility>

#include "channel/propagation.hpp"
#include "dsp/mixer.hpp"
#include "phy/fm0.hpp"
#include "phy/metrics.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::core {
namespace {

std::vector<double> expand_chips(const phy::Chips& chips, double spc,
                                 std::size_t offset, std::size_t total) {
  std::vector<double> out(total, 0.0);
  for (std::size_t i = offset; i < total; ++i) {
    const auto chip =
        static_cast<std::size_t>(static_cast<double>(i - offset) / spc);
    if (chip >= chips.size()) break;
    out[i] = static_cast<double>(chips[chip]);
  }
  return out;
}

}  // namespace

MultiNodeSimulator::MultiNodeSimulator(SimConfig config, channel::Vec3 projector,
                                       channel::Vec3 hydrophone,
                                       std::vector<channel::Vec3> node_positions)
    : MultiNodeSimulator(config, projector, hydrophone, std::move(node_positions),
                         std::make_shared<channel::TapCache>(
                             config.tank, config.max_image_order,
                             config.use_image_method)) {}

MultiNodeSimulator::MultiNodeSimulator(SimConfig config, channel::Vec3 projector,
                                       channel::Vec3 hydrophone,
                                       std::vector<channel::Vec3> node_positions,
                                       std::shared_ptr<channel::TapCache> tap_cache)
    : config_(config),
      projector_pos_(projector),
      hydrophone_pos_(hydrophone),
      nodes_(std::move(node_positions)),
      tap_cache_(std::move(tap_cache)) {
  require(!nodes_.empty(), "MultiNodeSimulator: need at least one node");
  require(tap_cache_ != nullptr, "MultiNodeSimulator: tap cache must not be null");
  for (const auto& p : nodes_)
    require(config_.tank.contains(p), "MultiNodeSimulator: node outside tank");
}

NetworkRunResult MultiNodeSimulator::run(
    const Projector& projector, const std::vector<circuit::RectoPiezo>& front_ends,
    const sim::FdmaPlan& cfg, pab::Rng& rng) const {
  const std::size_t n = nodes_.size();
  require(front_ends.size() == n, "MultiNodeSimulator: front-end count mismatch");
  require(cfg.carriers_hz.size() == n, "MultiNodeSimulator: carrier count mismatch");

  const double fs = config_.sample_rate;
  const double spc = fs / (2.0 * cfg.bitrate);
  require(spc >= 4.0, "MultiNodeSimulator: too few samples per chip");

  const std::size_t tr_chips = 2 * cfg.training_bits;
  const std::size_t pl_chips = 2 * cfg.payload_bits;
  const std::size_t guard_chips = 8;
  const auto chip_samples = [&](std::size_t chips) {
    return static_cast<std::size_t>(std::ceil(static_cast<double>(chips) * spc));
  };

  // Frame: [guard][train_0][guard][train_1]...[guard][payload][guard].
  std::vector<std::size_t> train_start(n);
  std::size_t cursor = chip_samples(guard_chips);
  for (std::size_t j = 0; j < n; ++j) {
    train_start[j] = cursor;
    cursor += chip_samples(tr_chips + guard_chips);
  }
  const std::size_t payload_start = cursor;
  const std::size_t total = payload_start + chip_samples(pl_chips + guard_chips);

  // Sequences.
  const auto random_chips = [&](std::size_t count) {
    phy::Chips c(count);
    for (auto& v : c) v = rng.bernoulli(0.5) ? 1 : -1;
    return c;
  };
  std::vector<phy::Chips> training(n);
  std::vector<pab::Bits> payload_bits(n);
  std::vector<phy::Chips> payload_chips(n);
  std::vector<std::vector<double>> state(n);
  for (std::size_t j = 0; j < n; ++j) {
    training[j] = random_chips(tr_chips);
    payload_bits[j] = rng.bits(cfg.payload_bits);
    payload_chips[j] = phy::fm0_encode(payload_bits[j]);
    const auto tr = expand_chips(training[j], spc, train_start[j], total);
    const auto pl = expand_chips(payload_chips[j], spc, payload_start, total);
    state[j].resize(total);
    for (std::size_t i = 0; i < total; ++i) state[j][i] = tr[i] + pl[i];
  }

  // Waveform synthesis per carrier.
  const double duration = static_cast<double>(total) / fs;
  std::vector<std::vector<dsp::cplx>> y_env(n);
  for (std::size_t ci = 0; ci < n; ++ci) {
    const double f = cfg.carriers_hz[ci];
    const dsp::BasebandSignal tx = projector.cw_envelope(f, duration, fs);
    const auto taps_ph = tap_cache_->taps(projector_pos_, hydrophone_pos_, f);
    dsp::BasebandSignal sum = channel::apply_taps_baseband(tx, *taps_ph);
    for (std::size_t nj = 0; nj < n; ++nj) {
      const auto taps_pn = tap_cache_->taps(projector_pos_, nodes_[nj], f);
      const auto taps_nh = tap_cache_->taps(nodes_[nj], hydrophone_pos_, f);
      const dsp::BasebandSignal at_node = channel::apply_taps_baseband(tx, *taps_pn);
      const dsp::cplx g_r = front_ends[nj].scatter_gain(f, true);
      const dsp::cplx g_a = front_ends[nj].scatter_gain(f, false);
      dsp::BasebandSignal scat;
      scat.sample_rate = fs;
      scat.carrier_hz = f;
      scat.samples.resize(at_node.size());
      for (std::size_t i = 0; i < at_node.size(); ++i) {
        const double s = i < state[nj].size() ? state[nj][i] : 0.0;
        scat.samples[i] = at_node.samples[i] * (s > 0.0 ? g_r : g_a);
      }
      sum.accumulate(channel::apply_taps_baseband(scat, *taps_nh));
    }
    y_env[ci] = std::move(sum.samples);
  }

  // Passband + noise at the hydrophone, then per-carrier down-conversion.
  std::size_t len = 0;
  for (const auto& e : y_env) len = std::max(len, e.size());
  dsp::Signal capture;
  capture.sample_rate = fs;
  capture.samples.resize(len);
  const double sens = config_.hydrophone.volts_per_pascal();
  // Each sample starts from its noise, drawn in bulk (the values one
  // gaussian() call per sample would give), and adds the carriers to it.
  rng.gaussian_into(capture.samples, 0.0, config_.noise.sample_stddev_pa(fs));
  for (std::size_t i = 0; i < len; ++i) {
    double p = capture.samples[i];
    for (std::size_t ci = 0; ci < n; ++ci) {
      if (i >= y_env[ci].size()) continue;
      const double ph = kTwoPi * cfg.carriers_hz[ci] * static_cast<double>(i) / fs;
      p += y_env[ci][i].real() * std::cos(ph) -
           y_env[ci][i].imag() * std::sin(ph);
    }
    capture.samples[i] = sens * p;
  }

  const double cutoff = 2.5 * cfg.bitrate;
  std::vector<std::vector<dsp::cplx>> y(n);
  for (std::size_t ci = 0; ci < n; ++ci) {
    dsp::BasebandSignal bb = dsp::downconvert_filtered(capture, cfg.carriers_hz[ci],
                                                       cutoff, 5);
    y[ci] = std::move(bb.samples);
  }

  // Per-node alignment: node->hydrophone delay refined by training
  // correlation (absorbs the receive filter's group delay).
  const double c_sound = channel::sound_speed_mackenzie(config_.tank.water);
  const std::size_t tr_len = chip_samples(tr_chips);
  const std::size_t pl_len = chip_samples(pl_chips);
  // Every read of a carrier stream goes through `window`, which removes the
  // window's own mean.  An idle node rests in the absorptive state, the level
  // of a -1 chip, while the reference gives idle samples 0, so each training
  // section and the payload section carry their own DC offset, set by which
  // nodes are idle there.  Stripping it per window keeps it out of the gain
  // fit, which has no offset term, and out of the zero-forcer.
  const auto window = [&](const std::vector<dsp::cplx>& stream, std::size_t start,
                          std::size_t count, std::size_t shift) {
    std::vector<dsp::cplx> out(count, dsp::cplx{});
    dsp::cplx mean{};
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t idx = start + shift + i;
      if (idx < stream.size()) out[i] = stream[idx];
      mean += out[i];
    }
    mean /= static_cast<double>(std::max<std::size_t>(count, 1));
    for (auto& v : out) v -= mean;
    return out;
  };

  std::vector<std::size_t> delay(n);
  std::vector<std::vector<double>> ref_train(n);
  for (std::size_t j = 0; j < n; ++j) {
    ref_train[j] = expand_chips(training[j], spc, 0, tr_len);
    const double d = channel::distance(nodes_[j], hydrophone_pos_);
    const auto base = static_cast<std::size_t>(std::lround(d / c_sound * fs));
    std::size_t best = base;
    double best_m = -1.0;
    for (std::size_t s = base; s <= base + static_cast<std::size_t>(3.0 * spc); ++s) {
      const auto w = window(y[j], train_start[j], tr_len, s);
      dsp::cplx acc{};
      for (std::size_t i = 0; i < tr_len; ++i) acc += w[i] * ref_train[j][i];
      const double m = std::abs(acc);
      if (m > best_m) { best_m = m; best = s; }
    }
    delay[j] = best;
  }

  // NxN channel estimation: h[i][j] from carrier i during node j's training.
  phy::CMatrix h(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      h.at(i, j) = phy::estimate_channel_gain(
          window(y[i], train_start[j], tr_len, delay[j]), ref_train[j]);
    }
  }

  NetworkRunResult result;
  result.channel = h;
  result.condition_number = h.condition_number();
  result.sinr_before_db.resize(n);
  result.sinr_after_db.resize(n);
  result.ber_after.resize(n);

  // Chip integration helper.
  const auto integrate = [&](const std::vector<dsp::cplx>& x) {
    std::vector<dsp::cplx> out(pl_chips, dsp::cplx{});
    for (std::size_t c = 0; c < pl_chips; ++c) {
      const auto lo = static_cast<std::size_t>(std::lround(static_cast<double>(c) * spc));
      const auto hi = static_cast<std::size_t>(std::lround(static_cast<double>(c + 1) * spc));
      dsp::cplx acc{};
      std::size_t cnt = 0;
      for (std::size_t i = lo; i < hi && i < x.size(); ++i) { acc += x[i]; ++cnt; }
      out[c] = cnt ? acc / static_cast<double>(cnt) : dsp::cplx{};
    }
    return out;
  };

  std::size_t decoded_ok = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::vector<double> chip_ref(payload_chips[j].begin(),
                                       payload_chips[j].end());
    // Before: own-carrier readout.
    const auto before =
        integrate(window(y[j], payload_start, pl_len, delay[j]));
    result.sinr_before_db[j] = phy::measure_sinr_db(before, chip_ref);

    // After: ZF with node j's alignment across all carrier streams.
    std::vector<std::vector<dsp::cplx>> aligned(n);
    for (std::size_t i = 0; i < n; ++i)
      aligned[i] = window(y[i], payload_start, pl_len, delay[j]);
    const auto separated = phy::zero_force_n(aligned, h);
    const auto after = integrate(separated[j]);
    result.sinr_after_db[j] = phy::measure_sinr_db(after, chip_ref);

    std::vector<double> soft(after.size());
    for (std::size_t c = 0; c < soft.size(); ++c) soft[c] = after[c].real();
    const auto decoded = phy::fm0_decode_ml(soft);
    result.ber_after[j] = phy::bit_error_rate(payload_bits[j], decoded);
    if (result.ber_after[j] < 0.01) ++decoded_ok;
  }

  const double frame_s = static_cast<double>(total) / fs;
  result.aggregate_goodput_bps =
      static_cast<double>(decoded_ok * cfg.payload_bits) / frame_s;
  return result;
}

}  // namespace pab::core
