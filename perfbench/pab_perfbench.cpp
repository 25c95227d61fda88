// pab_perfbench: runs one benchmark workload in this process and prints one
// JSON report line (the last line of stdout).  perfbench/run.py builds this
// binary, runs it, checks the report against perfbench/reference.json and
// BENCHMARK.json, and prints the benchmark's result line.
//
//   pab_perfbench --workload field_2000 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics: set-up is repeated and its
// median reported, then whole batches run until --seconds have passed.
// --trace 1 measures the per-layer metrics: an untraced pass and a traced
// replay of the same batches share --seconds, and the spans are written as
// Chrome trace-event JSON to --trace-out.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::BatchResult;

// One process, four BatchRunner workers: the benchmark host has four cores.
constexpr unsigned kThreads = 4;
// Set-up is repeated at least kMinSetups times and until kSetupBudgetS have
// passed (at most kMaxSetups); its median is the reported set-up time.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 21;
constexpr double kSetupBudgetS = 1.0;
constexpr int kMinBatches = 3;
// The trace file keeps the first spans only: enough to inspect every layer
// in a viewer without writing tens of megabytes per run.
constexpr std::size_t kMaxTraceFileSpans = 100000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--size") {
      if (val != "tiny" && val != "full") return false;
      a.tiny = val == "tiny";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && perfbench::is_workload(a.workload) && a.seconds > 0.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// VmHWM of this process image.  getrusage's ru_maxrss is not used: Linux
// carries it across execve, so it would report the launcher's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return std::strstr(PAB_PERFBENCH_CXX_FLAGS, "-fsanitize") == nullptr;
#else
  return false;
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Outcome of a sequence of batches: per-batch rates, digests and totals.
struct Phase {
  std::vector<double> rates;     // trials per wall second, per batch
  std::vector<double> cpu_per_trial_s;  // process CPU seconds per trial, per batch
  std::vector<double> trial_s;   // per-call trial times (trial workloads)
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  perfbench::Counts counts;
  bool consistent = true;        // every batch matched the reference batch
  std::string error;
};

// Runs batches of `step` until `seconds` have passed (and at least
// kMinBatches), checking each against `ref`.
template <typename Step>
Phase run_phase(double seconds, const BatchResult& ref, Step&& step) {
  Phase p;
  const auto start = Clock::now();
  while (p.rates.size() < kMinBatches || seconds_since(start) < seconds) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    BatchResult b = step();
    const double wall = seconds_since(t0);
    p.cpu_per_trial_s.push_back((cpu_seconds() - cpu0) / static_cast<double>(b.trials));
    p.rates.push_back(static_cast<double>(b.trials) / wall);
    p.trial_s.insert(p.trial_s.end(), b.trial_s.begin(), b.trial_s.end());
    p.trials += b.trials;
    p.failed += b.failed;
    p.wall_s += wall;
    p.counts.kept_pairs += b.counts.kept_pairs;
    p.counts.tap_evaluations += b.counts.tap_evaluations;
    p.counts.corrupted_slots += b.counts.corrupted_slots;
    p.counts.timeline_events += b.counts.timeline_events;
    p.counts.inventory_slots += b.counts.inventory_slots;
    if (!b.sanity_error.empty() && p.error.empty()) p.error = b.sanity_error;
    const double tol = 1e-9 * std::max(1.0, std::fabs(ref.continuous));
    if (b.digest != ref.digest || std::fabs(b.continuous - ref.continuous) > tol)
      p.consistent = false;
  }
  return p;
}

double hist_sum(const pab::obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Everything the report line carries besides the build fingerprint.
struct Report {
  std::map<std::string, double> metrics;
  BatchResult ref;  // the reference batch every later batch must match
  Phase phase;      // the timed (or traced) batches
  bool replay_matches = true;
  std::size_t setups = 0;
  std::string continuous_name;
};

// --trace 0: repeated set-up, one reference batch, timed batches.
Report measure_end_to_end(const Args& args) {
  Report r;
  // Set-up, repeated: inputs from the seed, sessions, warm-up trials.
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::Workload> w;
  const auto setup_start = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && seconds_since(setup_start) < kSetupBudgetS)) {
    w.reset();
    const auto t0 = Clock::now();
    w = perfbench::make_workload(args.workload, args.seed, kThreads, args.tiny);
    setup_s.push_back(seconds_since(t0));
  }
  r.setups = setup_s.size();
  // The reference batch (untimed) that every timed batch must match.
  r.ref = w->run();
  r.continuous_name = w->continuous_name();
  r.phase = run_phase(args.seconds, r.ref, [&] { return w->run(); });
  r.phase.failed += r.ref.failed;
  if (r.phase.error.empty()) r.phase.error = r.ref.sanity_error;

  std::vector<double> per_trial_ms;
  if (r.phase.trial_s.empty()) {
    // Campaign: the per-trial wall cost of each whole campaign run.
    for (const double rate : r.phase.rates) per_trial_ms.push_back(1e3 / rate);
  } else {
    for (const double s : r.phase.trial_s) per_trial_ms.push_back(s * 1e3);
  }
  r.metrics["trials_per_s"] = median(r.phase.rates);
  r.metrics["trial_p50_ms"] = median(per_trial_ms);
  r.metrics["cpu_ms_per_trial"] = 1e3 * median(r.phase.cpu_per_trial_s);
  r.metrics["setup_s"] = median(setup_s);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  // The highest percentile with at least ten samples beyond it.
  std::sort(per_trial_ms.begin(), per_trial_ms.end());
  const std::size_t n = per_trial_ms.size();
  const std::size_t hi = n > 10 ? n - 11 : n - 1;
  std::printf("%s: %zu batches, %.6g trials/s overall, %zu set-ups; per-trial "
              "ms p50 %.6g, p%.1f %.6g over %zu samples\n",
              args.workload.c_str(), r.phase.rates.size(),
              static_cast<double>(r.phase.trials) / r.phase.wall_s, r.setups,
              median(per_trial_ms), 100.0 * static_cast<double>(hi + 1) / n,
              per_trial_ms[hi], n);
  return r;
}

// --trace 1: untraced batches, then the traced replay of the same batches.
Report measure_per_layer(const Args& args) {
  Report r;
  auto w = perfbench::make_workload(args.workload, args.seed, kThreads, args.tiny);
  r.setups = 1;
  // The end-to-end outputs the traced replay must reproduce.
  r.ref = w->run();
  r.continuous_name = w->continuous_name();
  const std::vector<double> serial = w->serial_trial_s(8);
  const Phase untraced =
      run_phase(args.seconds / 2, r.ref, [&] { return w->run(); });

  perfbench::Tracer tracer;
  const auto before = w->registry().snapshot();
  const auto global_before = pab::obs::MetricRegistry::global().snapshot();
  r.phase = run_phase(args.seconds / 2, r.ref, [&] { return w->replay(tracer); });
  const auto after = w->registry().snapshot();
  const auto global_after = pab::obs::MetricRegistry::global().snapshot();
  r.replay_matches = r.phase.consistent && untraced.consistent;
  r.phase.failed += untraced.failed + r.ref.failed;
  if (r.phase.error.empty()) r.phase.error = untraced.error;
  if (r.phase.error.empty()) r.phase.error = r.ref.sanity_error;

  const double trials = static_cast<double>(r.phase.trials);
  const auto totals = tracer.totals();
  const auto span = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? perfbench::SpanTotals{} : it->second;
  };
  // Self time per replayed trial, or per call for per-shard/per-run spans.
  const auto per_trial_ms = [&](const char* name) {
    return 1e3 * span(name).self_s / trials;
  };
  const auto per_call = [&](const char* name, double scale) {
    const auto t = span(name);
    return t.count > 0 ? scale * t.self_s / static_cast<double>(t.count) : 0.0;
  };
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter_or(name) - before.counter_or(name));
  };
  // A receiver stage histogram's time over the traced phase, per trial.
  const auto stage_ms = [&](const char* name) {
    return 1e3 * (hist_sum(after, name) - hist_sum(before, name)) / trials;
  };

  r.metrics["phy.demod_ms"] = per_trial_ms("phy.demod");
  r.metrics["phy.demod.correlate_ms"] = stage_ms("phy.demod.correlate_seconds");
  r.metrics["phy.demod.downconvert_ms"] = stage_ms("phy.demod.downconvert_seconds");
  r.metrics["phy.demod.chanest_ms"] = stage_ms("phy.demod.chanest_seconds");
  r.metrics["phy.demod.ok_ratio"] =
      ratio(delta("phy.demod.ok"), delta("phy.demod.attempts"));
  r.metrics["core.link.synth_ms"] = per_trial_ms("core.link.synth");
  r.metrics["sim.session.modulation_us"] = 1e3 * per_trial_ms("sim.session.modulation");
  r.metrics["channel.tapcache.hit_ratio"] =
      ratio(delta("channel.tapcache.hits"),
            delta("channel.tapcache.hits") + delta("channel.tapcache.misses"));
  r.metrics["dsp.fftconv.hits_per_trial"] =
      static_cast<double>(global_after.counter_or("dsp.fftconv.hits") -
                          global_before.counter_or("dsp.fftconv.hits")) /
      trials;
  r.metrics["sim.session.arena.high_water_bytes"] =
      after.gauges.count("sim.session.arena.high_water_bytes") != 0
          ? after.gauges.at("sim.session.arena.high_water_bytes")
          : 0.0;
  r.metrics["channel.spatial.cull_ms"] = per_trial_ms("channel.spatial.cull");
  r.metrics["channel.tapcache.census_ms"] = per_trial_ms("channel.tapcache.census");
  r.metrics["channel.tapcache.reader_paths_ms"] =
      per_trial_ms("channel.tapcache.reader_paths");
  r.metrics["mac.zones.layout_ms"] = per_trial_ms("mac.zones.layout");
  r.metrics["mac.zones.plan_ms"] = per_trial_ms("mac.zones.plan");
  r.metrics["mac.zones.inventory_ms"] = per_trial_ms("mac.zones.inventory");
  r.metrics["channel.spatial.kept_pairs"] =
      static_cast<double>(r.phase.counts.kept_pairs) / trials;
  r.metrics["channel.tapcache.evaluations_per_trial"] =
      static_cast<double>(r.phase.counts.tap_evaluations) / trials;
  r.metrics["mac.zones.corrupted_slots"] =
      static_cast<double>(r.phase.counts.corrupted_slots) / trials;
  r.metrics["sim.timeline.events_per_trial"] =
      static_cast<double>(r.phase.counts.timeline_events) / trials;
  r.metrics["mac.inventory.slots_per_trial"] =
      static_cast<double>(r.phase.counts.inventory_slots) / trials;

  // Dispatch: trial spans against the map calls that ran them, and
  // against the same trials run one at a time.
  const auto trial_span = span("trial");
  const auto map_span = span("sim.batch.map");
  r.metrics["sim.batch.busy_ratio"] =
      ratio(trial_span.total_s, map_span.total_s * kThreads);
  r.metrics["sim.batch.contention_ratio"] =
      ratio(ratio(trial_span.total_s, static_cast<double>(trial_span.count)),
            mean(serial));
  r.metrics["sim.batch.dispatch_ms"] = per_call("sim.batch.map", 1e3);

  r.metrics["campaign.compile_ms"] = per_call("campaign.compile", 1e3);
  r.metrics["campaign.scenario_ms"] = per_call("campaign.scenario", 1e3);
  r.metrics["sim.session.construct_ms"] = per_call("sim.session.construct", 1e3);
  {
    const auto shard = span("campaign.shard");
    r.metrics["campaign.run_shard_ms"] =
        shard.count > 0 ? 1e3 * shard.total_s / static_cast<double>(shard.count)
                        : 0.0;
  }
  r.metrics["campaign.records_append_us"] = per_call("campaign.records_append", 1e6);
  r.metrics["obs.snapshot_us"] = per_call("obs.snapshot", 1e6);
  r.metrics["campaign.assemble_ms"] = per_call("campaign.assemble", 1e3);
  r.metrics["campaign.serialize_ms"] = per_call("campaign.serialize", 1e3);

  r.metrics["trace.overhead_ratio"] = ratio(median(untraced.rates), median(r.phase.rates));
  r.metrics["trace.coverage_min"] = tracer.min_child_coverage(w->coverage_span());

  if (!args.trace_out.empty() &&
      !tracer.write_chrome_json(args.trace_out, kMaxTraceFileSpans))
    throw std::runtime_error("cannot write " + args.trace_out);
  std::printf("%s: traced %zu batches (%llu trials), untraced %zu batches\n",
              args.workload.c_str(), r.phase.rates.size(),
              static_cast<unsigned long long>(r.phase.trials),
              untraced.rates.size());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pab_perfbench --workload "
                 "{uplink_100bps|uplink_5kbps|field_2000|campaign_timeline} "
                 "--seed N --seconds S --trace {0|1} [--size {full|tiny}] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  if (!optimised_build()) {
    std::fprintf(stderr,
                 "pab_perfbench: refusing to report timings from an "
                 "unoptimised or sanitizer build (flags: %s)\n",
                 PAB_PERFBENCH_CXX_FLAGS);
    return 3;
  }

  Report r;
  try {
    r = args.trace ? measure_per_layer(args) : measure_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pab_perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  const char* simd_env = std::getenv("PAB_SIMD");
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"size\":\"%s\",\"trace\":%d,"
      "\"digest\":\"%016llx\",\"continuous\":{\"%s\":%.17g},"
      "\"consistent\":%s,\"replay_matches\":%s,\"sanity_error\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"setups\":%zu,",
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.tiny ? "tiny" : "full", args.trace ? 1 : 0,
      static_cast<unsigned long long>(r.ref.digest), r.continuous_name.c_str(),
      r.ref.continuous,
      r.phase.consistent ? "true" : "false", r.replay_matches ? "true" : "false",
      json_string(r.phase.error).c_str(), static_cast<unsigned long long>(r.phase.trials),
      static_cast<unsigned long long>(r.phase.failed), r.setups);
  std::printf(
      "\"fingerprint\":{\"simd_dispatch\":%s,\"pab_simd_env\":%s,"
      "\"build_type\":%s,\"compiler\":%s,\"cxx_flags\":%s,\"threads\":%u},",
      json_string(pab::dsp::simd::isa_name(pab::dsp::simd::active())).c_str(),
      json_string(simd_env != nullptr ? simd_env : "").c_str(),
      json_string(PAB_PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PAB_PERFBENCH_COMPILER).c_str(),
      json_string(PAB_PERFBENCH_CXX_FLAGS).c_str(), kThreads);
  std::printf("\"metrics\":{");
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s%s:%.17g", first ? "" : ",", json_string(name).c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
