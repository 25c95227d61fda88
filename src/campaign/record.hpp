// RecordBatch: the campaign's compact columnar per-trial result format.
//
// A full trial result (decoded bit vectors, event logs, channel matrices) is
// too heavy to stream per-trial at campaign scale; a RecordBatch keeps the
// scalar summary every figure actually plots, one column per quantity, plus
// the trial index and error disposition.  Columns are fixed per TrialKind
// (column_names), rows are appended in trial order, and serialization is the
// canonical campaign byte encoding -- so "same results" between executors,
// shardings, and resume passes is byte equality of the serialized batches.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "campaign/wire.hpp"
#include "sim/session.hpp"
#include "sim/trial.hpp"
#include "util/error.hpp"

namespace pab::campaign {

class RecordBatch {
 public:
  explicit RecordBatch(sim::TrialKind kind = sim::TrialKind::kUplink);

  // The fixed column schema of one trial kind.
  [[nodiscard]] static std::span<const std::string_view> column_names(
      sim::TrialKind kind);

  [[nodiscard]] sim::TrialKind kind() const { return kind_; }
  [[nodiscard]] std::size_t rows() const { return trial_.size(); }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }

  [[nodiscard]] const std::vector<std::uint64_t>& trial() const {
    return trial_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& ok() const { return ok_; }
  [[nodiscard]] const std::vector<std::uint8_t>& error_code() const {
    return error_code_;
  }
  [[nodiscard]] const std::vector<double>& column(std::size_t c) const {
    return columns_[c];
  }

  // Append one trial's outcome.  Failed trials keep their row (ok = 0,
  // error_code = the pab::ErrorCode) with zeroed columns, so the row count
  // always equals the trial count and merges stay positional.
  void append(std::uint64_t trial,
              const pab::Expected<sim::TrialResult>& result);

  // Append every row of `other` (same kind) after this batch's rows.
  void append_batch(const RecordBatch& other);

  void serialize(ByteWriter& w) const;
  // serialize()'s byte count, for callers that reserve before writing.
  [[nodiscard]] std::size_t serialized_size() const;
  [[nodiscard]] static pab::Expected<RecordBatch> deserialize(ByteReader& r);
  // Canonical bytes (serialize into a fresh writer) -- the equality token.
  [[nodiscard]] std::string bytes() const;

 private:
  sim::TrialKind kind_;
  std::vector<std::uint64_t> trial_;
  std::vector<std::uint8_t> ok_;
  std::vector<std::uint8_t> error_code_;
  std::vector<std::vector<double>> columns_;  // column_names(kind_).size()
};

}  // namespace pab::campaign
