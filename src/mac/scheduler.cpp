#include "mac/scheduler.hpp"

#include "sim/timeline.hpp"

namespace pab::mac {

PollScheduler::PollScheduler(SchedulerConfig config, sim::Timeline* timeline)
    : config_(config), timeline_(timeline) {
  require(config.max_retries >= 0, "PollScheduler: negative retries");
  require(config.downlink_time_s >= 0.0 && config.turnaround_s >= 0.0,
          "PollScheduler: negative timing");
  require(config.retry_backoff_s >= 0.0, "PollScheduler: negative backoff");
  require(config.query_timeout_s > 0.0,
          "PollScheduler: query timeout must be positive");
}

TransactionStats PollScheduler::stats() const {
  TransactionStats s = books_;
  s.elapsed_s = elapsed_.value();
  return s;
}

void PollScheduler::export_to(obs::MetricRegistry& registry) const {
  const TransactionStats s = stats();
  registry.counter("mac.poll.attempts").add(s.attempts);
  registry.counter("mac.poll.successes").add(s.successes);
  registry.counter("mac.poll.crc_failures").add(s.crc_failures);
  registry.counter("mac.poll.no_response").add(s.no_response);
  registry.counter("mac.poll.retries").add(s.retries);
  registry.gauge("mac.poll.payload_bits_delivered")
      .add(s.payload_bits_delivered);
  registry.gauge("mac.poll.elapsed_s").add(s.elapsed_s);
}

void PollScheduler::charge_airtime(double dt, sim::TimelineLabel label,
                                   double& spent) {
  if (timeline_ != nullptr) timeline_->elapse(dt, label);
  elapsed_.add(dt);
  spent += dt;
}

pab::Expected<phy::UplinkPacket> PollScheduler::transact(
    const phy::DownlinkQuery& query, const TransactFn& link,
    std::size_t uplink_bits, double uplink_bitrate) {
  require(uplink_bitrate > 0.0, "transact: bitrate must be positive");
  const double uplink_time =
      static_cast<double>(uplink_bits) / uplink_bitrate;

  // Airtime this query has consumed so far, counted against query_timeout_s.
  double spent = 0.0;
  pab::Error last{pab::ErrorCode::kTimeout, "no attempts"};
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      if (spent >= config_.query_timeout_s) {
        if (timeline_ != nullptr) timeline_->charge("mac.query_timeout", 0.0);
        break;
      }
      ++books_.retries;
      if (timeline_ != nullptr) timeline_->charge("mac.retry", 0.0);
      if (config_.retry_backoff_s > 0.0)
        charge_airtime(config_.retry_backoff_s, "mac.retry_backoff", spent);
    }
    ++books_.attempts;
    charge_airtime(config_.downlink_time_s, "mac.downlink", spent);
    charge_airtime(config_.turnaround_s, "mac.turnaround", spent);

    auto result = link(query);
    // Uplink airtime is only spent when the node actually answered: a decoded
    // packet or a reply that reached the receiver but failed the CRC.  A
    // no-response attempt (no preamble, timeout) occupies the channel for the
    // query and turnaround alone -- charging the response slot too would
    // understate effective throughput on lossy links.
    const bool replied =
        result.ok() || result.error().code == pab::ErrorCode::kCrcMismatch;
    if (replied) charge_airtime(uplink_time, "mac.uplink", spent);
    if (result.ok()) {
      ++books_.successes;
      const double bits =
          static_cast<double>(result.value().payload.size()) * 8.0;
      books_.payload_bits_delivered += bits;
      if (timeline_ != nullptr) timeline_->charge("mac.payload_bits", bits);
      return result;
    }
    last = result.error();
    if (last.code == pab::ErrorCode::kCrcMismatch) {
      ++books_.crc_failures;
      if (timeline_ != nullptr) timeline_->charge("mac.crc_failure", 0.0);
    } else {
      ++books_.no_response;
      if (timeline_ != nullptr) timeline_->charge("mac.no_response", 0.0);
    }
  }
  return last;
}

void PollScheduler::poll_round(std::span<const phy::DownlinkQuery> queries,
                               const TransactFn& link, std::size_t uplink_bits,
                               double uplink_bitrate) {
  for (const auto& q : queries)
    (void)transact(q, link, uplink_bits, uplink_bitrate);
}

}  // namespace pab::mac
