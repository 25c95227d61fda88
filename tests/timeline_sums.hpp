// Per-label totals of a Timeline event log.  The Timeline keeps no totals of
// its own; tests re-derive them from the log the way the audit does.
#pragma once

#include <string_view>
#include <vector>

#include "sim/timeline.hpp"
#include "util/stats.hpp"

namespace pab::testing {

// Sum of `value` over the log entries labelled `label`, in log order, with a
// compensated (Neumaier) accumulator; 0.0 for a label never logged.
inline double logged_sum(const std::vector<sim::TimelineEvent>& log,
                         std::string_view label) {
  NeumaierSum sum;
  for (const sim::TimelineEvent& e : log)
    if (e.label == label) sum.add(e.value);
  return sum.value();
}

}  // namespace pab::testing
