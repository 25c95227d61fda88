// MAC scheduling: TDMA polling baseline and FDMA concurrent access.
//
// The projector acts as an RFID-style reader.  In TDMA mode it polls one node
// at a time on a single carrier; in FDMA mode, recto-piezos on different
// channels answer concurrently and the hydrophone separates collisions with
// the MIMO decoder -- "enabling doubling the network throughput" (abstract).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "phy/packet.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace pab::sim {
class Timeline;
class TimelineLabel;
}  // namespace pab::sim

namespace pab::mac {

// One reader->node->reader exchange executed by the surrounding simulation.
// Returns the decoded uplink packet or a link-layer error.
using TransactFn =
    std::function<pab::Expected<phy::UplinkPacket>(const phy::DownlinkQuery&)>;

// A scheduler's transaction accounting: plain books, published as
// `mac.poll.*` instruments by PollScheduler::export_to.
struct TransactionStats {
  std::size_t attempts = 0;
  std::size_t successes = 0;
  std::size_t crc_failures = 0;
  std::size_t no_response = 0;
  std::size_t retries = 0;
  double payload_bits_delivered = 0.0;
  double elapsed_s = 0.0;

  [[nodiscard]] double success_rate() const {
    return attempts > 0 ? static_cast<double>(successes) /
                              static_cast<double>(attempts)
                        : 0.0;
  }
  [[nodiscard]] double goodput_bps() const {
    return elapsed_s > 0.0 ? payload_bits_delivered / elapsed_s : 0.0;
  }
};

struct SchedulerConfig {
  int max_retries = 2;          // per query, on CRC failure / no response
  double downlink_time_s = 0.2; // airtime of one query (PWM is slow)
  double turnaround_s = 0.02;   // guard between downlink and uplink
  // Wait before each retry (a real timed event on the Timeline, not just a
  // counter bump).  0 preserves the historical immediate-retry behaviour.
  double retry_backoff_s = 0.0;
  // Give up on a query once its accumulated airtime (downlink + turnaround +
  // uplink + backoff) reaches this budget, even if retries remain.  The
  // default (infinity) preserves the historical retry-until-exhausted
  // behaviour.
  double query_timeout_s = std::numeric_limits<double>::infinity();
};

class PollScheduler {
 public:
  // stats() reports exactly this scheduler's transactions; export_to folds
  // them into a shared registry, e.g. a bench sidecar via
  // obs::MetricRegistry::global().
  //
  // With a `timeline`, every airtime phase is charged as a timed event
  // ("mac.downlink", "mac.turnaround", "mac.uplink", "mac.retry_backoff")
  // plus zero-duration outcome markers ("mac.retry", "mac.no_response",
  // "mac.crc_failure", "mac.payload_bits", "mac.query_timeout"), so the full
  // TransactionStats can be reconstructed from the event log alone -- the
  // `timeline.event_reconstruction` invariant in src/check asserts exactly
  // that.  Without one, the scheduler is its own clock (legacy adapter mode)
  // and accounting is unchanged.
  explicit PollScheduler(SchedulerConfig config = {},
                         sim::Timeline* timeline = nullptr);

  // Execute one query with retries; updates stats with airtime accounting.
  // `uplink_bits` and `uplink_bitrate` size the response airtime.  Uplink
  // airtime is charged only for attempts where a reply actually arrived
  // (decoded or CRC-failed); a no-response attempt costs the downlink query
  // and turnaround alone.
  [[nodiscard]] pab::Expected<phy::UplinkPacket> transact(
      const phy::DownlinkQuery& query, const TransactFn& link,
      std::size_t uplink_bits, double uplink_bitrate);

  // Poll each (address, query) pair once, in order.
  void poll_round(std::span<const phy::DownlinkQuery> queries,
                  const TransactFn& link, std::size_t uplink_bits,
                  double uplink_bitrate);

  [[nodiscard]] TransactionStats stats() const;

  // Add stats() to the `mac.poll.{attempts,successes,crc_failures,
  // no_response,retries}` counters and the
  // `mac.poll.{payload_bits_delivered,elapsed_s}` gauges of `registry`.
  void export_to(obs::MetricRegistry& registry) const;

 private:
  // Charge one airtime phase: elapse it on the timeline (when attached), add
  // it to the elapsed sum, and count it against the current query's timeout
  // budget.
  void charge_airtime(double dt, sim::TimelineLabel label, double& spent);

  SchedulerConfig config_;
  sim::Timeline* timeline_ = nullptr;
  TransactionStats books_;  // every field but elapsed_s
  // elapsed_s is a compensated sum: a plain double += drifts by ~1e-6 s over
  // millions of transactions, which the drift regression in
  // tests/test_mac.cpp pins down.
  NeumaierSum elapsed_;
};

}  // namespace pab::mac
