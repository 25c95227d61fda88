#include "mac/rate_control.hpp"

#include "phy/scheme.hpp"

namespace pab::mac {

std::vector<LadderRung> fm0_ladder(std::span<const double> bitrates) {
  std::vector<LadderRung> ladder;
  ladder.reserve(bitrates.size());
  for (const double rate : bitrates) ladder.push_back({phy::SchemeId::kFm0, rate});
  return ladder;
}

RateController::RateController(RateControlConfig config, std::size_t initial_index)
    : config_(std::move(config)), index_(initial_index) {
  require(!config_.ladder.empty(), "RateController: empty ladder");
  require(initial_index < config_.ladder.size(),
          "RateController: initial index out of range");
  require(config_.up_margin_db > config_.down_margin_db,
          "RateController: up margin must exceed down margin");
  require(config_.up_streak >= 1 && config_.down_streak >= 1,
          "RateController: streaks must be >= 1");
  require(config_.evm_backstop > config_.evm_upshift_max,
          "RateController: evm backstop must exceed the upshift gate");
  // A ladder the controller cannot walk monotonically is a config bug, not a
  // runtime condition: rungs strictly ascend in delivered throughput
  // (bitrate * bits_per_symbol), so a downshift always buys robustness.
  const auto throughput = [](const LadderRung& r) {
    return r.bitrate *
           static_cast<double>(phy::scheme_descriptor(r.scheme).bits_per_symbol);
  };
  for (std::size_t i = 0; i < config_.ladder.size(); ++i) {
    require(config_.ladder[i].bitrate > 0.0,
            "RateController: ladder bitrates must be positive");
    if (i > 0) {
      require(throughput(config_.ladder[i]) > throughput(config_.ladder[i - 1]),
              "RateController: ladder must strictly ascend in throughput");
    }
  }
}

bool RateController::step(double level_db, bool crc_ok, bool evm_allows_up,
                          bool evm_forces_down) {
  // Headroom against the floor of the scheme we are currently decoding with:
  // a dense scheme's higher floor shrinks its own margin, so the controller
  // retreats from it sooner than a plain SNR rule would.
  const double headroom_db =
      level_db - phy::scheme_descriptor(rung().scheme).decode_floor_db;
  if ((!crc_ok && config_.downshift_on_crc_failure) || evm_forces_down ||
      headroom_db < config_.down_margin_db) {
    good_streak_ = 0;
    ++bad_streak_;
    if (bad_streak_ >= config_.down_streak && index_ > 0) {
      --index_;
      ++downshifts_;
      bad_streak_ = 0;
      return true;
    }
    return false;
  }

  bad_streak_ = 0;
  // A CRC-failed observation never counts toward an upshift streak, even when
  // `downshift_on_crc_failure` is false (the failure is forgiven, not
  // rewarded): upshifting on the back of undecodable packets walks a marginal
  // link straight off the ladder.
  if (crc_ok && evm_allows_up && headroom_db >= config_.up_margin_db) {
    ++good_streak_;
    if (good_streak_ >= config_.up_streak && index_ + 1 < config_.ladder.size()) {
      ++index_;
      ++upshifts_;
      good_streak_ = 0;
      return true;
    }
  } else {
    good_streak_ = 0;
  }
  return false;
}

bool RateController::observe(double snr_db, bool crc_ok) {
  return step(snr_db, crc_ok, /*evm_allows_up=*/true, /*evm_forces_down=*/false);
}

bool RateController::observe_quality(const phy::LinkQuality& quality,
                                     bool crc_ok) {
  return step(quality.mer_db, crc_ok,
              quality.evm_rms <= config_.evm_upshift_max,
              quality.evm_rms >= config_.evm_backstop);
}

}  // namespace pab::mac
