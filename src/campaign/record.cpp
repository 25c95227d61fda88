#include "campaign/record.hpp"

#include <array>
#include <bit>
#include <string_view>

#include "util/error.hpp"

namespace pab::campaign {

namespace {

constexpr std::array<std::string_view, 9> kUplinkColumns = {
    "ber",        "snr_db",      "channel_amp",
    "demod_bits", "incident_pa", "modulation_pa",
    "evm_rms",    "mer_db",      "cn0_dbhz"};

constexpr std::array<std::string_view, 5> kNetworkColumns = {
    "mean_sinr_before_db", "mean_sinr_after_db", "mean_ber_after",
    "condition_number", "aggregate_goodput_bps"};

constexpr std::array<std::string_view, 16> kTimelineColumns = {
    "identified",      "inventory_frames", "inventory_slots",
    "inventory_singletons", "inventory_collisions", "poll_attempts",
    "poll_successes",  "poll_crc_failures", "poll_retries",
    "payload_bits_delivered", "poll_elapsed_s", "simulated_s",
    "harvested_j",     "consumed_j",       "power_ups",
    "brown_outs"};

constexpr std::array<std::string_view, 21> kFieldColumns = {
    "population",      "cull_radius_m",    "total_pairs",
    "kept_pairs",      "culled_pairs",     "mean_pair_gain",
    "mean_reader_gain", "tap_evaluations", "tap_lookups",
    "zones",           "zone_colors",      "zone_rounds",
    "channels",        "identified",       "simulated_s",
    "node_hours",      "mean_slot_sinr_db", "interference_corrupted_slots",
    "evm_rms",         "mer_db",           "cn0_dbhz"};

// A column's in-memory bytes.
template <typename T>
std::string_view column_bytes(const std::vector<T>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T)};
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

RecordBatch::RecordBatch(sim::TrialKind kind)
    : kind_(kind), columns_(column_names(kind).size()) {}

std::span<const std::string_view> RecordBatch::column_names(
    sim::TrialKind kind) {
  switch (kind) {
    case sim::TrialKind::kUplink: return kUplinkColumns;
    case sim::TrialKind::kNetwork: return kNetworkColumns;
    case sim::TrialKind::kTimeline: return kTimelineColumns;
    case sim::TrialKind::kField: return kFieldColumns;
  }
  return {};
}

void RecordBatch::append(std::uint64_t trial,
                         const pab::Expected<sim::TrialResult>& result) {
  trial_.push_back(trial);
  ok_.push_back(result.ok() ? 1 : 0);
  error_code_.push_back(static_cast<std::uint8_t>(result.code()));
  if (!result.ok()) {
    for (auto& col : columns_) col.push_back(0.0);
    return;
  }
  const sim::TrialResult& r = result.value();
  require(r.index() == static_cast<std::size_t>(kind_),
          "RecordBatch::append: trial result kind mismatch");
  switch (kind_) {
    case sim::TrialKind::kUplink: {
      const auto& u = std::get<sim::UplinkTrial>(r);
      columns_[0].push_back(u.ber);
      columns_[1].push_back(u.demod.snr_db);
      columns_[2].push_back(u.demod.channel_amp);
      columns_[3].push_back(static_cast<double>(u.demod.bits.size()));
      columns_[4].push_back(u.incident_pressure_pa);
      columns_[5].push_back(u.modulation_pressure_pa);
      columns_[6].push_back(u.demod.quality.evm_rms);
      columns_[7].push_back(u.demod.quality.mer_db);
      columns_[8].push_back(u.demod.quality.cn0_dbhz);
      break;
    }
    case sim::TrialKind::kNetwork: {
      const auto& n = std::get<core::NetworkRunResult>(r);
      columns_[0].push_back(mean_of(n.sinr_before_db));
      columns_[1].push_back(mean_of(n.sinr_after_db));
      columns_[2].push_back(mean_of(n.ber_after));
      columns_[3].push_back(n.condition_number);
      columns_[4].push_back(n.aggregate_goodput_bps);
      break;
    }
    case sim::TrialKind::kTimeline: {
      const auto& t = std::get<sim::TimelineRunResult>(r);
      columns_[0].push_back(static_cast<double>(t.identified.size()));
      columns_[1].push_back(static_cast<double>(t.inventory.frames));
      columns_[2].push_back(static_cast<double>(t.inventory.slots));
      columns_[3].push_back(static_cast<double>(t.inventory.singletons));
      columns_[4].push_back(static_cast<double>(t.inventory.collisions));
      columns_[5].push_back(static_cast<double>(t.poll.attempts));
      columns_[6].push_back(static_cast<double>(t.poll.successes));
      columns_[7].push_back(static_cast<double>(t.poll.crc_failures));
      columns_[8].push_back(static_cast<double>(t.poll.retries));
      columns_[9].push_back(t.poll.payload_bits_delivered);
      columns_[10].push_back(t.poll.elapsed_s);
      columns_[11].push_back(t.simulated_s);
      columns_[12].push_back(t.harvested_j);
      columns_[13].push_back(t.consumed_j);
      columns_[14].push_back(static_cast<double>(t.power_ups));
      columns_[15].push_back(static_cast<double>(t.brown_outs));
      break;
    }
    case sim::TrialKind::kField: {
      const auto& f = std::get<sim::FieldRunResult>(r);
      columns_[0].push_back(static_cast<double>(f.population));
      columns_[1].push_back(f.cull_radius_m);
      columns_[2].push_back(static_cast<double>(f.total_pairs));
      columns_[3].push_back(static_cast<double>(f.kept_pairs));
      columns_[4].push_back(static_cast<double>(f.culled_pairs));
      columns_[5].push_back(f.mean_pair_gain);
      columns_[6].push_back(f.mean_reader_gain);
      columns_[7].push_back(static_cast<double>(f.tap_evaluations));
      columns_[8].push_back(static_cast<double>(f.tap_lookups));
      columns_[9].push_back(static_cast<double>(f.zones));
      columns_[10].push_back(static_cast<double>(f.zone_colors));
      columns_[11].push_back(static_cast<double>(f.zone_rounds));
      columns_[12].push_back(static_cast<double>(f.channels));
      columns_[13].push_back(static_cast<double>(f.identified.size()));
      columns_[14].push_back(f.simulated_s);
      columns_[15].push_back(f.node_hours);
      columns_[16].push_back(f.mean_slot_sinr_db);
      columns_[17].push_back(
          static_cast<double>(f.interference_corrupted_slots));
      columns_[18].push_back(f.slot_quality.evm_rms);
      columns_[19].push_back(f.slot_quality.mer_db);
      columns_[20].push_back(f.slot_quality.cn0_dbhz);
      break;
    }
  }
}

void RecordBatch::append_batch(const RecordBatch& other) {
  require(other.kind_ == kind_, "RecordBatch::append_batch: kind mismatch");
  trial_.insert(trial_.end(), other.trial_.begin(), other.trial_.end());
  ok_.insert(ok_.end(), other.ok_.begin(), other.ok_.end());
  error_code_.insert(error_code_.end(), other.error_code_.begin(),
                     other.error_code_.end());
  for (std::size_t c = 0; c < columns_.size(); ++c)
    columns_[c].insert(columns_[c].end(), other.columns_[c].begin(),
                       other.columns_[c].end());
}

RecordBatch RecordBatch::slice(std::size_t begin, std::size_t end) const {
  require(begin <= end && end <= rows(), "RecordBatch::slice: bad range");
  RecordBatch out(kind_);
  out.trial_.assign(trial_.begin() + static_cast<std::ptrdiff_t>(begin),
                    trial_.begin() + static_cast<std::ptrdiff_t>(end));
  out.ok_.assign(ok_.begin() + static_cast<std::ptrdiff_t>(begin),
                 ok_.begin() + static_cast<std::ptrdiff_t>(end));
  out.error_code_.assign(
      error_code_.begin() + static_cast<std::ptrdiff_t>(begin),
      error_code_.begin() + static_cast<std::ptrdiff_t>(end));
  for (std::size_t c = 0; c < columns_.size(); ++c)
    out.columns_[c].assign(columns_[c].begin() + static_cast<std::ptrdiff_t>(begin),
                           columns_[c].begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

// A row is a u64 trial index, ok and error-code bytes, and one f64 per
// column.
std::size_t RecordBatch::serialized_size() const {
  return 1 + 8 + rows() * (10 + 8 * columns_.size());
}

void RecordBatch::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.u64(rows());
  // The wire is little-endian: on a little-endian host every column is
  // already in wire order, so each goes out in one append.
  if constexpr (std::endian::native == std::endian::little) {
    w.raw(column_bytes(trial_));
  } else {
    for (const std::uint64_t t : trial_) w.u64(t);
  }
  w.raw(column_bytes(ok_));
  w.raw(column_bytes(error_code_));
  for (const auto& col : columns_) {
    if constexpr (std::endian::native == std::endian::little) {
      w.raw(column_bytes(col));
    } else {
      for (const double v : col) w.f64(v);
    }
  }
}

pab::Expected<RecordBatch> RecordBatch::deserialize(ByteReader& r) {
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(sim::TrialKind::kField))
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "RecordBatch: unknown trial kind on the wire"};
  RecordBatch out(static_cast<sim::TrialKind>(kind));
  const std::uint64_t rows = r.u64();
  // Reject a row count the payload cannot hold before reserving for it.
  if (rows > r.remaining() / (10 + 8 * out.columns_.size()))
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "RecordBatch: row count exceeds the payload"};
  out.trial_.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) out.trial_.push_back(r.u64());
  out.ok_.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) out.ok_.push_back(r.u8());
  out.error_code_.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) out.error_code_.push_back(r.u8());
  for (auto& col : out.columns_) {
    col.reserve(rows);
    for (std::uint64_t i = 0; i < rows; ++i) col.push_back(r.f64());
  }
  return out;
}

std::string RecordBatch::bytes() const {
  ByteWriter w;
  w.reserve(serialized_size());
  serialize(w);
  return w.take();
}

}  // namespace pab::campaign
