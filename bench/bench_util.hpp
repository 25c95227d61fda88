// Shared helpers for the figure-regeneration benches.
//
// Each bench binary declares a BenchSpec -- its name, the series printer, an
// optional campaign projection, and the metrics its run must leave behind --
// and hands it to run_bench_main.  The default path prints the figure
// series, writes a metrics JSON sidecar (`<name>.metrics.json` in the
// working directory) holding every instrument the run touched in the
// process-wide obs::MetricRegistry, and then fails the process if any
// required metric is absent or below its minimum -- so CI catches a bench
// that silently stopped exercising the subsystem it claims to measure, or
// whose paper claim no longer holds.  Stdout is a function of the code
// alone: a wall-clock rate goes to a sidecar gauge, never to the figure
// text, and timing the simulator is perfbench's job.
//
// One flag routes the same binary through the campaign engine instead; any
// other argument is a usage error (exit 2):
//   --campaign              run spec.campaign through the in-process
//                           BatchExecutor; writes <name>.campaign.records /
//                           .campaign.metrics.json / .campaign.summary.json
//                           and prints the summary
//   --print-campaign-spec   dump the canonical campaign spec text and exit,
//                           ready to feed to `pab_serve --spec` for a
//                           sharded multi-process run of the same sweep
#pragma once

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/batch_executor.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"

namespace pab::bench {

inline void print_header(const char* figure, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s -- %s\n", figure, description);
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells) {
  // One space after each padded cell keeps over-wide cells apart.
  for (const auto& c : cells) std::printf("%-13s ", c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_sci(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

// What a bench binary is: structured, instead of ad-hoc per-bench argument
// parsing.  `campaign` is the bench's sweep expressed as a CampaignSpec, so
// the same binary doubles as a campaign job (see the flags above); the spec
// is also what `pab_serve` shards across worker processes.
// `required_metrics` are the sidecar assertions, (name, minimum) pairs: each
// names a counter or gauge of the global registry that the default path must
// leave at or above its minimum.  A counter at minimum 1 shows the run
// exercised a subsystem; a `claim.*` gauge shows a paper claim or a
// self-check held.
struct BenchSpec {
  std::string name;  // binary/figure name; sidecar and campaign artifact stem
  void (*print_series)() = nullptr;
  std::optional<campaign::CampaignSpec> campaign;
  std::vector<std::pair<std::string, double>> required_metrics;
};

namespace detail {

inline bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", "bench", path.c_str());
    return false;
  }
  return true;
}

// The --campaign path: the bench's sweep through the in-process executor.
inline int run_as_campaign(const BenchSpec& spec) {
  if (!spec.campaign.has_value()) {
    std::fprintf(stderr, "%s: this bench has no campaign projection\n",
                 spec.name.c_str());
    return 2;
  }
  campaign::BatchExecutor executor;
  const campaign::RunOptions options;
  auto result = executor.run(*spec.campaign, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: campaign failed: %s\n", spec.name.c_str(),
                 result.error().message().c_str());
    return 1;
  }
  const std::string stem = spec.name + ".campaign";
  if (!write_file(stem + ".records", result.value().records_bytes()) ||
      !write_file(stem + ".metrics.json", result.value().metrics.to_json()) ||
      !write_file(stem + ".summary.json", result.value().summary_json()))
    return 1;
  std::fputs(result.value().summary_json().c_str(), stdout);
  std::fprintf(stderr, "%s: campaign artifacts: %s.{records,metrics.json,summary.json}\n",
               spec.name.c_str(), stem.c_str());
  return 0;
}

// Sidecar assertions: every required metric present among the global
// registry's counters or gauges after the run, and at least its minimum (a
// NaN gauge fails too).
inline int check_required_metrics(const BenchSpec& spec) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricRegistry::global().snapshot();
  int failed = 0;
  for (const auto& [name, minimum] : spec.required_metrics) {
    std::optional<double> value;
    if (const auto c = snapshot.counters.find(name);
        c != snapshot.counters.end())
      value = static_cast<double>(c->second);
    else if (const auto g = snapshot.gauges.find(name);
             g != snapshot.gauges.end())
      value = g->second;
    if (!value.has_value()) {
      std::fprintf(stderr,
                   "%s: required metric \"%s\" is absent -- the bench no "
                   "longer exercises what it claims to measure\n",
                   spec.name.c_str(), name.c_str());
      ++failed;
    } else if (!(*value >= minimum)) {
      std::fprintf(stderr, "%s: \"%s\" is %g, below its required %g\n",
                   spec.name.c_str(), name.c_str(), *value, minimum);
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace detail

// The bench entry point.  Handles the campaign flags, otherwise prints the
// figure series, writes the metrics sidecar from the global registry, and
// enforces the spec's sidecar assertions.  Exits 2 on any other argument and
// 1 when the sidecar cannot be written or an assertion fails.
inline int run_bench_main(int argc, char** argv, const BenchSpec& spec) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 1 || (arg != "--campaign" && arg != "--print-campaign-spec")) {
      std::fprintf(stderr,
                   "%s: unexpected argument \"%s\"\n"
                   "usage: %s [--campaign | --print-campaign-spec]\n",
                   spec.name.c_str(), argv[i], spec.name.c_str());
      return 2;
    }
  }
  const std::string_view flag = argc > 1 ? argv[1] : "";
  if (flag == "--campaign") return detail::run_as_campaign(spec);
  if (flag == "--print-campaign-spec") {
    if (!spec.campaign.has_value()) {
      std::fprintf(stderr, "%s: this bench has no campaign projection\n",
                   spec.name.c_str());
      return 2;
    }
    std::fputs(spec.campaign->serialize().c_str(), stdout);
    return 0;
  }
  if (spec.print_series != nullptr) spec.print_series();
  const std::string sidecar = spec.name + ".metrics.json";
  if (!detail::write_file(sidecar, obs::MetricRegistry::global().to_json()))
    return 1;
  std::printf("\nmetrics sidecar: %s\n", sidecar.c_str());
  return detail::check_required_metrics(spec);
}

}  // namespace pab::bench
