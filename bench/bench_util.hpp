// Shared helpers for the figure-regeneration benches.
//
// Each bench binary declares a BenchSpec -- its name, what it reproduces,
// the series printer, an optional campaign projection, and the counters its
// run must have touched -- and hands it to run_bench_main.  The default path
// prints the figure series, runs google-benchmark timings of the hot kernels
// involved, writes a metrics JSON sidecar (`<bench>.metrics.json`, next to
// wherever the bench was run) holding every instrument the run touched in
// the process-wide obs::MetricRegistry, and then fails the process if any
// required counter is absent or zero -- so CI catches a bench that silently
// stopped exercising the subsystem it claims to measure.
//
// Two flags route the same binary through the campaign engine instead:
//   --campaign              run spec.campaign through the in-process
//                           BatchExecutor; writes <name>.campaign.records /
//                           .campaign.metrics.json / .campaign.summary.json
//                           and prints the summary (no google-benchmark run)
//   --print-campaign-spec   dump the canonical campaign spec text and exit,
//                           ready to feed to `pab_serve --spec` for a
//                           sharded multi-process run of the same sweep
#pragma once

#include <benchmark/benchmark.h>

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
// `required_counters` are sidecar assertions: global-registry counters the
// default path must leave nonzero.
struct BenchSpec {
  std::string name;         // binary/figure name; campaign artifact stem
  std::string description;  // one line: what the bench reproduces
  void (*print_series)() = nullptr;
  std::optional<campaign::CampaignSpec> campaign;
  std::vector<std::string> required_counters;
};

// `<basename of argv0>.metrics.json` in the working directory.
inline std::string metrics_sidecar_path(const char* argv0) {
  std::string_view name = argv0 != nullptr ? argv0 : "bench";
  if (const auto slash = name.rfind('/'); slash != std::string_view::npos)
    name.remove_prefix(slash + 1);
  return std::string(name) + ".metrics.json";
}

// Dump `registry` as the bench's metrics sidecar; returns the path ("" on
// I/O failure).  run_bench_main calls this with the global registry -- call
// it directly only for an isolated registry.
inline std::string write_metrics_sidecar(
    const char* argv0,
    const obs::MetricRegistry& registry = obs::MetricRegistry::global()) {
  const std::string path = metrics_sidecar_path(argv0);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::string json = registry.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return path;
}

namespace detail {

inline bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
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

// Sidecar assertions: every required counter present and nonzero in the
// global registry after the run.
inline int check_required_counters(const BenchSpec& spec) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricRegistry::global().snapshot();
  int missing = 0;
  for (const std::string& name : spec.required_counters) {
    if (snapshot.counter_or(name, 0) == 0) {
      std::fprintf(stderr,
                   "%s: required counter \"%s\" is absent or zero -- the "
                   "bench no longer exercises what it claims to measure\n",
                   spec.name.c_str(), name.c_str());
      ++missing;
    }
  }
  return missing == 0 ? 0 : 1;
}

}  // namespace detail

// The bench entry point.  Handles the campaign flags, otherwise prints the
// figure series, runs registered google-benchmark timings, emits the metrics
// sidecar from the global registry, and enforces the spec's sidecar
// assertions (nonzero exit when one fails).
inline int run_bench_main(int argc, char** argv, const BenchSpec& spec) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--campaign") return detail::run_as_campaign(spec);
    if (arg == "--print-campaign-spec") {
      if (!spec.campaign.has_value()) {
        std::fprintf(stderr, "%s: this bench has no campaign projection\n",
                     spec.name.c_str());
        return 2;
      }
      std::fputs(spec.campaign->serialize().c_str(), stdout);
      return 0;
    }
  }
  if (spec.print_series != nullptr) spec.print_series();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const std::string sidecar =
      write_metrics_sidecar(argc > 0 ? argv[0] : nullptr);
  if (!sidecar.empty())
    std::printf("\nmetrics sidecar: %s\n", sidecar.c_str());
  return detail::check_required_counters(spec);
}

}  // namespace pab::bench
