// Per-trial receiver workspace: one arena for every intermediate waveform in
// the modem chain plus a cached scheme receiver.
//
// Ownership rules (see src/README.md):
//   * One Workspace per worker thread.  It is not synchronized; never share a
//     live Workspace across threads.  sim::Session keeps a pool and leases one
//     per trial.
//   * The arena is sized on first use and only grows; steady-state trials
//     reuse the same blocks, so the hot loop performs zero heap allocations.
//   * scheme_demodulator(config) rebuilds only when the config changes
//     (member-wise equality on SchemeConfig); a Monte-Carlo sweep that fixes
//     the operating point constructs the receiver exactly once.
#pragma once

#include <optional>

#include "dsp/arena.hpp"
#include "phy/scheme.hpp"

namespace pab::phy {

class Workspace {
 public:
  Workspace() = default;

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  [[nodiscard]] dsp::Arena& arena() { return arena_; }

  // The receiver for one (scheme, config) operating point, built on first
  // use and rebuilt only when the config changes.  The reference stays valid
  // until the next call with a different config.
  [[nodiscard]] const SchemeDemodulator& scheme_demodulator(
      const SchemeConfig& config) {
    if (!scheme_demod_.has_value() || !(scheme_demod_->config() == config))
      scheme_demod_.emplace(config);
    return *scheme_demod_;
  }

 private:
  dsp::Arena arena_;
  std::optional<SchemeDemodulator> scheme_demod_;
};

}  // namespace pab::phy
