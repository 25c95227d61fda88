#include "campaign/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.hpp"

namespace pab::campaign {

namespace {

using obs::fmt_double;

// The most trials one campaign may hold over all its points: compile()
// builds the whole shard list up front (32 bytes a shard, up to one shard a
// trial), so a spec past this limit is refused before any allocation.  Far
// above every campaign in the repository (the largest runs 4096 trials).
constexpr std::uint64_t kMaxCampaignTrials = std::uint64_t{1} << 24;

// Reads the next token of `in` as a whole decimal number; anything else
// (a sign, a fraction, trailing text, a value past 2^64 - 1) sets failbit.
void read_whole(std::istringstream& in, std::uint64_t& value) {
  std::string token;
  in >> token;
  const bool digits =
      !token.empty() && std::all_of(token.begin(), token.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  errno = 0;
  const unsigned long long parsed =
      digits ? std::strtoull(token.c_str(), nullptr, 10) : 0;
  if (!digits || errno != 0) {
    in.setstate(std::ios::failbit);
    return;
  }
  value = parsed;
}

bool one_token(std::string_view s) {
  return !s.empty() && s.find_first_of(" \t\n\r") == std::string_view::npos;
}

// Stores an integer-valued parameter, accepted only as a finite,
// non-negative whole number below 2^53.  Casting a negative, NaN or infinite
// value to an unsigned count is undefined and a fractional one is truncated,
// so each is rejected.  A spec value arrives as a double, which holds every
// integer exactly only below 2^53: a larger one may not be the number the
// spec wrote (the seed 2^53 + 1 parses as 2^53), so it is rejected too.
template <typename T>
bool set_count(T& field, double value) {
  if (!(value >= 0.0 && value < 0x1p53 && value == std::floor(value)))
    return false;
  field = static_cast<T>(value);
  return true;
}

}  // namespace

bool apply_param(sim::Scenario& s, std::string_view name, double value) {
  if (name == "seed") {
    return set_count(s.medium.seed, value);
  } else if (name == "waveform.carrier_hz") {
    s.waveform.carrier_hz = value;
  } else if (name == "waveform.bitrate") {
    s.waveform.bitrate = value;
  } else if (name == "waveform.payload_bits") {
    return set_count(s.waveform.payload_bits, value);
  } else if (name == "waveform.node_start_s") {
    s.waveform.node_start_s = value;
  } else if (name == "waveform.tail_s") {
    s.waveform.tail_s = value;
  } else if (name == "waveform.scheme") {
    // phy::SchemeId ordinal (0 = fm0, 1 = fsk2, 2 = fsk4); out-of-range
    // values are a spec error, not a silent clamp.
    std::size_t ordinal = 0;
    if (!set_count(ordinal, value) || ordinal >= phy::kSchemeCount) return false;
    s.waveform.scheme = static_cast<phy::SchemeId>(ordinal);
  } else if (name == "projector.drive_v") {
    s.projector.drive_v = value;
  } else if (name == "projector.ideal") {
    s.projector.ideal = value != 0.0;
  } else if (name == "projector.ideal_pressure_pa") {
    s.projector.ideal_pressure_pa = value;
  } else if (name == "noise.psd_db_re_upa") {
    s.medium.noise.psd_db_re_upa = value;
  } else if (name == "medium.sample_rate") {
    s.medium.sample_rate = value;
  } else if (name == "medium.receiver_clock_offset_ppm") {
    s.medium.receiver_clock_offset_ppm = value;
  } else if (name == "placement.node.x") {
    channel::Vec3 p = s.node_position(0);
    p.x = value;
    s.field.set_position(0, p);
  } else if (name == "placement.node.y") {
    channel::Vec3 p = s.node_position(0);
    p.y = value;
    s.field.set_position(0, p);
  } else if (name == "placement.node.z") {
    channel::Vec3 p = s.node_position(0);
    p.z = value;
    s.field.set_position(0, p);
  } else if (name.starts_with("field.")) {
    // Field-generator sweep axes: only meaningful on generated (open-water)
    // presets; a hand-placed field has no generator to re-run.
    if (s.field_spec.layout == sim::FieldLayout::kExplicit) return false;
    if (name == "field.population") {
      if (!set_count(s.field_spec.population, value)) return false;
    } else if (name == "field.area_per_node_m2") {
      s.field_spec.area_per_node_m2 = value;
    } else if (name == "field.depth_m") {
      s.field_spec.depth_m = value;
    } else if (name == "field.clusters") {
      if (!set_count(s.field_spec.clusters, value)) return false;
    } else if (name == "field.cluster_spread_m") {
      s.field_spec.cluster_spread_m = value;
    } else if (name == "field.seed") {
      if (!set_count(s.field_spec.seed, value)) return false;
    } else {
      return false;
    }
    s.apply_field(s.field_spec);
  } else if (name == "fdma.bitrate") {
    s.fdma.bitrate = value;
  } else if (name == "fdma.training_bits") {
    return set_count(s.fdma.training_bits, value);
  } else if (name == "fdma.payload_bits") {
    return set_count(s.fdma.payload_bits, value);
  } else {
    return false;
  }
  return true;
}

bool apply_timeline_param(sim::TimelineRoundConfig& c, std::string_view name,
                          double value) {
  if (name == "tick_s") {
    c.tick_s = value;
  } else if (name == "idle_load_w") {
    c.idle_load_w = value;
  } else if (name == "v_ceiling") {
    c.v_ceiling = value;
  } else if (name == "capacitance_f") {
    c.capacitance_f = value;
  } else if (name == "base_harvest_w") {
    c.base_harvest_w = value;
  } else if (name == "harvest_jitter") {
    c.harvest_jitter = value;
  } else if (name == "max_drift_mps") {
    c.max_drift_mps = value;
  } else if (name == "horizon_s") {
    c.horizon_s = value;
  } else if (name == "decode_prob") {
    c.decode_prob = value;
  } else if (name == "crc_prob") {
    c.crc_prob = value;
  } else if (name == "uplink_bits") {
    return set_count(c.uplink_bits, value);
  } else if (name == "uplink_bitrate") {
    c.uplink_bitrate = value;
  } else if (name == "keep_log") {
    c.keep_log = value != 0.0;
  } else {
    return false;
  }
  return true;
}

bool apply_field_round_param(sim::FieldRoundConfig& c, std::string_view name,
                             double value) {
  if (name == "gain_floor") {
    c.gain_floor = value;
  } else if (name == "quant_cell_m") {
    c.quant_cell_m = value;
  } else if (name == "brute_force") {
    c.brute_force = value != 0.0;
  } else if (name == "zone_extent_m") {
    c.zone_extent_m = value;
  } else if (name == "frame_announce_s") {
    c.frame_announce_s = value;
  } else if (name == "slot_s") {
    c.slot_s = value;
  } else if (name == "keep_log") {
    c.keep_log = value != 0.0;
  } else if (name == "interference") {
    c.interference = value != 0.0;
  } else if (name == "noise_power") {
    c.noise_power = value;
  } else if (name == "capture_threshold_db") {
    c.capture_threshold_db = value;
  } else if (name == "rejection_passband_hz") {
    c.rejection_passband_hz = value;
  } else if (name == "rejection_slope_db_per_khz") {
    c.rejection_slope_db_per_khz = value;
  } else if (name == "rejection_floor_db") {
    c.rejection_floor_db = value;
  } else {
    return false;
  }
  return true;
}

std::uint64_t CampaignSpec::point_count() const {
  std::uint64_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<double> CampaignSpec::point_values(std::uint64_t point) const {
  std::vector<double> out(axes.size());
  // Mixed radix, last axis fastest: point = ((i0*|a1| + i1)*|a2| + i2)...
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::uint64_t radix = axes[a].values.size();
    out[a] = axes[a].values[point % radix];
    point /= radix;
  }
  return out;
}

pab::Expected<sim::Scenario> CampaignSpec::scenario_for_point(
    std::uint64_t point) const {
  sim::Scenario s;
  if (preset == "pool_a") {
    s = sim::Scenario::pool_a();
  } else if (preset == "pool_b") {
    s = sim::Scenario::pool_b();
  } else if (preset == "swimming_pool") {
    s = sim::Scenario::swimming_pool();
  } else if (preset == "pool_a_concurrent") {
    s = sim::Scenario::pool_a_concurrent();
  } else if (preset == "open_water_grid") {
    sim::FieldSpec f;
    f.layout = sim::FieldLayout::kGrid;
    f.population = 100;
    s = sim::Scenario::open_water(f);
  } else if (preset == "open_water_random") {
    sim::FieldSpec f;
    f.layout = sim::FieldLayout::kRandom;
    f.population = 100;
    s = sim::Scenario::open_water(f);
  } else if (preset == "open_water_clusters") {
    sim::FieldSpec f;
    f.layout = sim::FieldLayout::kClusters;
    f.population = 100;
    s = sim::Scenario::open_water(f);
  } else {
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "unknown scenario preset: " + preset};
  }
  s.medium.seed = base_seed;
  const std::vector<double> values = point_values(point);
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (!apply_param(s, axes[a].param, values[a]))
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "unknown sweep parameter or bad value: " +
                            axes[a].param + "=" + fmt_double(values[a])};
  }
  return s;
}

pab::Expected<sim::TrialOptions> CampaignSpec::trial_options() const {
  sim::TrialOptions opts;
  opts.timeline.keep_log = false;
  for (const auto& [key, value] : timeline) {
    if (!apply_timeline_param(opts.timeline, key, value))
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "unknown timeline parameter or bad value: " + key +
                            "=" + fmt_double(value)};
  }
  opts.field.keep_log = false;
  for (const auto& [key, value] : field) {
    if (!apply_field_round_param(opts.field, key, value))
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "unknown field parameter: " + key};
  }
  return opts;
}

pab::Expected<bool> CampaignSpec::validate() const {
  if (!one_token(name))
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign name must be one non-empty token"};
  if (trials_per_point == 0)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign needs at least one trial per point"};
  // point_count() * trials_per_point, saturating at the limit + 1 so the
  // product never overflows.
  std::uint64_t total = trials_per_point;
  for (const auto& axis : axes) {
    if (!one_token(axis.param) || axis.values.empty())
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "sweep axis needs a name and at least one value"};
    total = axis.values.size() > kMaxCampaignTrials / total
                ? kMaxCampaignTrials + 1
                : total * axis.values.size();
  }
  if (total > kMaxCampaignTrials)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign holds more than " +
                          std::to_string(kMaxCampaignTrials) +
                          " trials over all its points"};
  const auto scenario = scenario_for_point(0);
  if (!scenario.ok()) return scenario.error();
  const auto opts = trial_options();
  if (!opts.ok()) return opts.error();
  return true;
}

std::vector<Shard> CampaignSpec::compile(std::uint64_t shard_size) const {
  if (shard_size == 0) shard_size = trials_per_point;
  std::vector<Shard> shards;
  const std::uint64_t points = point_count();
  std::uint64_t index = 0;
  for (std::uint64_t p = 0; p < points; ++p) {
    for (std::uint64_t begin = 0; begin < trials_per_point;
         begin += shard_size) {
      const std::uint64_t end = std::min(begin + shard_size, trials_per_point);
      shards.push_back(Shard{index++, p, begin, end});
    }
  }
  return shards;
}

std::string CampaignSpec::serialize() const {
  std::string out = "pab-campaign-spec v1\n";
  out += "name " + name + "\n";
  out += "preset " + preset + "\n";
  out += std::string("kind ") + sim::to_string(kind) + "\n";
  out += "trials " + std::to_string(trials_per_point) + "\n";
  out += "seed " + std::to_string(base_seed) + "\n";
  for (const auto& axis : axes) {
    out += "axis " + axis.param;
    for (const double v : axis.values) out += " " + fmt_double(v);
    out += "\n";
  }
  for (const auto& [key, value] : timeline)
    out += "timeline " + key + " " + fmt_double(value) + "\n";
  for (const auto& [key, value] : field)
    out += "field " + key + " " + fmt_double(value) + "\n";
  return out;
}

pab::Expected<CampaignSpec> CampaignSpec::parse(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != "pab-campaign-spec v1")
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign spec: missing 'pab-campaign-spec v1' header"};
  CampaignSpec spec;
  spec.axes.clear();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "name") {
      fields >> spec.name;
    } else if (key == "preset") {
      fields >> spec.preset;
    } else if (key == "kind") {
      std::string kind;
      fields >> kind;
      const auto parsed = sim::trial_kind_from(kind);
      if (!parsed.has_value())
        return pab::Error{pab::ErrorCode::kInvalidArgument,
                          "campaign spec: unknown trial kind: " + kind};
      spec.kind = *parsed;
    } else if (key == "trials") {
      read_whole(fields, spec.trials_per_point);
    } else if (key == "seed") {
      read_whole(fields, spec.base_seed);
    } else if (key == "axis") {
      SweepAxis axis;
      fields >> axis.param;
      double v = 0.0;
      while (fields >> v) axis.values.push_back(v);
      spec.axes.push_back(std::move(axis));
    } else if (key == "timeline") {
      std::string name;
      double v = 0.0;
      fields >> name >> v;
      spec.timeline[name] = v;
    } else if (key == "field") {
      std::string name;
      double v = 0.0;
      fields >> name >> v;
      spec.field[name] = v;
    } else {
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "campaign spec: unknown directive: " + key};
    }
    if (fields.fail() && key != "axis")
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "campaign spec: malformed line: " + line};
  }
  const auto ok = spec.validate();
  if (!ok.ok()) return ok.error();
  return spec;
}

std::uint64_t CampaignSpec::fingerprint() const {
  // FNV-1a 64 over the canonical text form.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : serialize()) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace pab::campaign
