// Section 3.3 / abstract claim: recto-piezo FDMA doubles network throughput.
//
// Two nodes polled over the waveform simulator: TDMA (one 15 kHz channel,
// alternating queries) vs FDMA (15 + 18 kHz recto-piezos answering
// concurrently, separated by the MIMO decoder).  Reports aggregate goodput
// and the throughput ratio.
#include "bench_util.hpp"
#include "mac/fdma.hpp"
#include "mac/protocol.hpp"
#include "mac/scheduler.hpp"
#include "sim/batch.hpp"

namespace {

using namespace pab;

constexpr double kBitrate = 250.0;
constexpr std::size_t kPayloadBits = 240;
constexpr int kRounds = 6;

// Airtime of one polled transaction (downlink query + turnaround + uplink).
double transaction_airtime(const mac::SchedulerConfig& cfg, std::size_t bits) {
  return cfg.downlink_time_s + cfg.turnaround_s +
         static_cast<double>(bits) / kBitrate;
}

void print_series() {
  bench::print_header("Network",
                      "TDMA vs FDMA (recto-piezo) aggregate throughput");
  const mac::SchedulerConfig sched_cfg{};

  // Both MACs share the paper's concurrent geometry (ideal 300 Pa projector,
  // nodes at {1.0, 2.0} and {2.0, 2.0} in Pool A).
  const sim::Scenario base = sim::Scenario::pool_a_concurrent();
  const sim::BatchRunner pool;

  // --- TDMA: alternate single-node uplinks on the 15 kHz channel -----------
  // One single-node Scenario per node position; in TDMA both nodes are built
  // for the single shared channel (15 kHz front end).
  sim::Waveform w;
  w.carrier_hz = 15000.0;
  w.bitrate = kBitrate;
  w.payload_bits = kPayloadBits;
  sim::Scenario tdma1 = base.with_waveform(w).with_seed(10);
  tdma1.field = sim::NodeField::single(base.node_position(0));
  tdma1.fdma = sim::FdmaPlan{};
  const sim::Scenario tdma2 =
      tdma1.with_node(base.node_position(1)).with_seed(11);

  double tdma_bits = 0.0, tdma_time = 0.0;
  {
    const sim::Session sess1(tdma1), sess2(tdma2);
    const auto trials1 = pool.run<sim::TrialKind::kUplink>(sess1, kRounds);
    const auto trials2 = pool.run<sim::TrialKind::kUplink>(sess2, kRounds);
    for (const auto* trials : {&trials1, &trials2}) {
      for (const auto& t : *trials) {
        tdma_time += transaction_airtime(sched_cfg, kPayloadBits + 12);
        if (t.ok() && t.value().ber < 0.02)
          tdma_bits += static_cast<double>(kPayloadBits);
      }
    }
  }

  // --- FDMA: both nodes answer one query concurrently ----------------------
  double fdma_bits = 0.0, fdma_time = 0.0;
  {
    sim::Scenario fdma = base.with_seed(100);
    fdma.fdma.bitrate = kBitrate;
    fdma.fdma.payload_bits = kPayloadBits;
    const sim::Session sess(fdma);
    const auto frames = pool.run<sim::TrialKind::kNetwork>(sess, kRounds);
    for (const auto& f : frames) {
      // One downlink poll serves both uplinks, which overlap in time.
      fdma_time += transaction_airtime(sched_cfg, kPayloadBits + 2 * 24 + 12);
      if (!f.ok()) continue;
      for (double ber : f.value().ber_after)
        if (ber < 0.02) fdma_bits += static_cast<double>(kPayloadBits);
    }
  }

  const double tdma_goodput = tdma_bits / tdma_time;
  const double fdma_goodput = fdma_bits / fdma_time;

  bench::print_row({"MAC", "delivered [b]", "airtime [s]", "goodput [bps]"});
  bench::print_row({"TDMA", bench::fmt(tdma_bits, 0), bench::fmt(tdma_time, 2),
                    bench::fmt(tdma_goodput, 1)});
  bench::print_row({"FDMA", bench::fmt(fdma_bits, 0), bench::fmt(fdma_time, 2),
                    bench::fmt(fdma_goodput, 1)});
  std::printf("\nFDMA / TDMA throughput ratio: %.2fx\n",
              fdma_goodput / std::max(tdma_goodput, 1e-9));
  std::printf("Paper shape: concurrent recto-piezo transmissions with collision\n"
              "decoding double the network throughput (abstract, section 6.3).\n");

  // Ideal-plan cross-check from the MAC layer.
  const auto plan = mac::plan_channels(2);
  std::printf("Channel plan: %.1f / %.1f kHz; ideal gain %.1fx\n",
              plan.carriers_hz[0] / 1000.0, plan.carriers_hz[1] / 1000.0,
              mac::fdma_throughput_bps(2, kBitrate) /
                  mac::tdma_throughput_bps(2, kBitrate));
}

void bm_scheduler_round(benchmark::State& state) {
  mac::PollScheduler sched;
  const auto link = [](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    phy::UplinkPacket p;
    p.payload = {1, 2, 3, 4};
    return p;
  };
  const std::vector<phy::DownlinkQuery> queries = {mac::make_ping(1),
                                                   mac::make_ping(2)};
  for (auto _ : state) {
    sched.poll_round(queries, link, 76, 1000.0);
    const auto stats = sched.stats();
    benchmark::DoNotOptimize(&stats);
  }
  // Fold the scheduler's mac.poll.* books into this bench's sidecar.
  sched.export_to(pab::obs::MetricRegistry::global());
}
BENCHMARK(bm_scheduler_round);

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "fdma_throughput";
  spec.description = "TDMA vs FDMA (recto-piezo) aggregate throughput";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "fdma_throughput";
  sweep.kind = pab::sim::TrialKind::kNetwork;
  sweep.preset = "pool_a_concurrent";
  sweep.trials_per_point = 16;
  sweep.axes.push_back({"fdma.bitrate", {125.0, 250.0, 500.0}});
  spec.campaign = std::move(sweep);
  spec.required_counters = {"sim.session.trials", "sim.batch.trials"};
  return pab::bench::run_bench_main(argc, argv, spec);
}
