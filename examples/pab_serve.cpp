// pab_serve: the campaign front-end.
//
// Builds a CampaignSpec from flags (or loads a serialized spec file), runs
// it through the in-process BatchExecutor or the multi-process
// ProcessExecutor, and writes the artifacts a campaign leaves behind:
//   <out>.records       canonical record-batch bytes (cross-run comparable)
//   <out>.metrics.json  merged metrics, same schema as the bench sidecars
//   <out>.summary.json  per-point aggregates
//
//   pab_serve --preset pool_a --kind uplink --trials 48
//             --axis waveform.carrier_hz=12500,15000,17500
//             --workers 3 --out /tmp/ber_sweep      (one command line)
//   pab_serve --in-process ... --out /tmp/ber_sweep_ref   # reference run
//
// A sharded run and an --in-process run of the same spec produce identical
// .records bytes; kill a run mid-campaign (or cap it with --max-shards) and
// `--checkpoint DIR --resume` finishes it without repeating finished shards.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/batch_executor.hpp"
#include "campaign/process_executor.hpp"
#include "sim/batch.hpp"

namespace {

using pab::campaign::CampaignSpec;
using pab::campaign::SweepAxis;

void usage() {
  std::cout <<
      "usage: pab_serve [options]\n"
      "  campaign definition:\n"
      "    --spec FILE            load a serialized campaign spec\n"
      "    --name NAME            campaign name (default: campaign)\n"
      "    --preset NAME          pool_a | pool_b | swimming_pool |\n"
      "                           pool_a_concurrent | open_water_grid |\n"
      "                           open_water_random | open_water_clusters\n"
      "                           (default: pool_a)\n"
      "    --kind KIND            uplink | network | timeline | field\n"
      "    --trials N             trials per operating point\n"
      "    --seed N               base seed (common random numbers)\n"
      "    --axis P=V1,V2,...     sweep axis (repeatable; cartesian product)\n"
      "    --timeline K=V         timeline knob override (repeatable)\n"
      "  execution:\n"
      "    --in-process           run the BatchExecutor (default: sharded)\n"
      "    --workers N            worker process count (at most 256,\n"
      "                           default 3)\n"
      "    --worker-bin PATH      pab_worker binary (default: next to serve)\n"
      "    --threads N            threads the shards and their trials share\n"
      "                           (at most 256, default 1; per worker\n"
      "                           process when sharded)\n"
      "    --shard N              trials per shard (default 32)\n"
      "    --checkpoint DIR       persist finished shards under DIR\n"
      "    --resume               fold in DIR's finished shards\n"
      "    --max-shards N         stop after N new shards (testing/ops)\n"
      "  output:\n"
      "    --out PREFIX           write PREFIX.records / .metrics.json /\n"
      "                           .summary.json\n"
      "    --print-spec           dump the canonical spec text and exit\n";
}

// A whole decimal count no larger than `max`; strtoull alone would read
// "-1" as 18446744073709551615 and "4x" as 4.
bool parse_count(const char* text, std::uint64_t max, std::uint64_t& count) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  count = value;
  return true;
}

constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();

// A thread or worker count, at most BatchRunner::kMaxThreads (0 means 1,
// as in RunOptions).
bool parse_threads(const char* text, unsigned& threads) {
  std::uint64_t value = 0;
  if (!parse_count(text, pab::sim::BatchRunner::kMaxThreads, value))
    return false;
  threads = static_cast<unsigned>(value);
  return true;
}

// A finite decimal number that is the whole of `text`.
bool parse_decimal(const std::string& text, double& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno == 0 &&
         std::isfinite(value);
}

bool parse_axis(const std::string& arg, SweepAxis& axis) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  axis.param = arg.substr(0, eq);
  axis.values.clear();
  std::istringstream values(arg.substr(eq + 1));
  std::string token;
  double value = 0.0;
  while (std::getline(values, token, ',')) {
    if (!parse_decimal(token, value)) return false;
    axis.values.push_back(value);
  }
  return !axis.values.empty();
}

// A malformed flag value is a usage error: exit code 2.
int bad_value(const std::string& flag, const char* value,
              const std::string& want) {
  std::cerr << "pab_serve: bad " << flag << " (want " << want << "): " << value
            << "\n";
  return 2;
}

bool write_artifact(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::cerr << "pab_serve: cannot write " << path << "\n";
    return false;
  }
  return true;
}

std::string sibling_worker_binary(const char* argv0) {
  std::string path(argv0);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "./pab_worker"
                                    : path.substr(0, slash + 1) + "pab_worker";
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  pab::campaign::RunOptions options;
  bool in_process = false;
  bool print_spec = false;
  std::string out_prefix;
  const std::string thread_range =
      "0-" + std::to_string(pab::sim::BatchRunner::kMaxThreads);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--spec" && (v = next()) != nullptr) {
      std::ifstream in(v);
      std::ostringstream buf;
      buf << in.rdbuf();
      auto parsed = CampaignSpec::parse(buf.str());
      if (!parsed.ok()) {
        std::cerr << "pab_serve: " << parsed.error().message() << "\n";
        return 2;
      }
      spec = std::move(parsed).value();
    } else if (arg == "--name" && (v = next()) != nullptr) {
      spec.name = v;
    } else if (arg == "--preset" && (v = next()) != nullptr) {
      spec.preset = v;
    } else if (arg == "--kind" && (v = next()) != nullptr) {
      const auto kind = pab::sim::trial_kind_from(v);
      if (!kind.has_value()) {
        std::cerr << "pab_serve: unknown kind: " << v << "\n";
        return 2;
      }
      spec.kind = *kind;
    } else if (arg == "--trials" && (v = next()) != nullptr) {
      if (!parse_count(v, kAnyCount, spec.trials_per_point))
        return bad_value(arg, v, "a whole number");
    } else if (arg == "--seed" && (v = next()) != nullptr) {
      if (!parse_count(v, kAnyCount, spec.base_seed))
        return bad_value(arg, v, "a whole number");
    } else if (arg == "--axis" && (v = next()) != nullptr) {
      SweepAxis axis;
      if (!parse_axis(v, axis)) {
        std::cerr << "pab_serve: bad --axis (want param=v1,v2,...): " << v
                  << "\n";
        return 2;
      }
      spec.axes.push_back(std::move(axis));
    } else if (arg == "--timeline" && (v = next()) != nullptr) {
      const std::string kv = v;
      const std::size_t eq = kv.find('=');
      double value = 0.0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_decimal(kv.substr(eq + 1), value))
        return bad_value(arg, v, "key=finite number");
      spec.timeline[kv.substr(0, eq)] = value;
    } else if (arg == "--in-process") {
      in_process = true;
    } else if (arg == "--workers" && (v = next()) != nullptr) {
      if (!parse_threads(v, options.workers))
        return bad_value(arg, v, thread_range);
    } else if (arg == "--worker-bin" && (v = next()) != nullptr) {
      options.worker_binary = v;
    } else if (arg == "--threads" && (v = next()) != nullptr) {
      if (!parse_threads(v, options.worker_threads))
        return bad_value(arg, v, thread_range);
    } else if (arg == "--shard" && (v = next()) != nullptr) {
      if (!parse_count(v, kAnyCount, options.shard_size))
        return bad_value(arg, v, "a whole number");
    } else if (arg == "--checkpoint" && (v = next()) != nullptr) {
      options.checkpoint_dir = v;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--max-shards" && (v = next()) != nullptr) {
      if (!parse_count(v, kAnyCount, options.max_shards))
        return bad_value(arg, v, "a whole number");
    } else if (arg == "--out" && (v = next()) != nullptr) {
      out_prefix = v;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else {
      std::cerr << "pab_serve: unknown or incomplete option: " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (print_spec) {
    std::cout << spec.serialize();
    return 0;
  }
  if (options.worker_binary.empty())
    options.worker_binary = sibling_worker_binary(argv[0]);

  auto result = in_process
                    ? pab::campaign::BatchExecutor().run(spec, options)
                    : pab::campaign::ProcessExecutor().run(spec, options);
  if (!result.ok()) {
    std::cerr << "pab_serve: " << result.error().message() << "\n";
    return 1;
  }

  if (!out_prefix.empty()) {
    if (!write_artifact(out_prefix + ".records",
                        result.value().records_bytes()) ||
        !write_artifact(out_prefix + ".metrics.json",
                        result.value().metrics.to_json()) ||
        !write_artifact(out_prefix + ".summary.json",
                        result.value().summary_json()))
      return 1;
  }
  std::cout << result.value().summary_json();
  return 0;
}
