#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "util/error.hpp"

namespace pab::obs {

namespace {

// Shortest representation that round-trips an IEEE-754 double.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

template <typename Map, typename Make>
auto& find_or_create(std::shared_mutex& mutex, Map& map, std::string_view name,
                     Make&& make) {
  {
    std::shared_lock lock(mutex);
    const auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), make()).first;
  return *it->second;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i == bounds.size()) return lo;  // overflow bucket: no upper edge
      const double hi = bounds[i];
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void HistogramSnapshot::merge_from(const HistogramSnapshot& other) {
  if (count == 0 && buckets.empty()) {
    *this = other;
    return;
  }
  require(bounds == other.bounds,
          "HistogramSnapshot::merge_from: bucket bounds differ");
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] = v;
  for (const auto& [name, h] : other.histograms) {
    const auto it = histograms.find(name);
    if (it == histograms.end())
      histograms.emplace(name, h);
    else
      it->second.merge_from(h);
  }
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it != counters.end() ? it->second : fallback;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + fmt_double(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": {\n";
    out += "      \"count\": " + std::to_string(h.count) + ",\n";
    out += "      \"sum\": " + fmt_double(h.sum) + ",\n";
    out += "      \"mean\": " + fmt_double(h.mean()) + ",\n";
    out += "      \"p50\": " + fmt_double(h.quantile(0.50)) + ",\n";
    out += "      \"p95\": " + fmt_double(h.quantile(0.95)) + ",\n";
    out += "      \"p99\": " + fmt_double(h.quantile(0.99)) + ",\n";
    out += "      \"buckets\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": " + fmt_double(h.bounds[i]) +
             ", \"count\": " + std::to_string(h.buckets[i]) + "}";
    }
    out += "],\n";
    out += "      \"overflow\": " + std::to_string(h.buckets[h.bounds.size()]) +
           "\n    }";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      buckets_(new std::atomic<std::uint64_t>[upper_bounds.size() + 1]()) {
  require(std::is_sorted(bounds_.begin(), bounds_.end()),
          "Histogram: bucket bounds must be sorted");
  require(std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
          "Histogram: bucket bounds must be distinct");
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) out.buckets[i] = bucket_count(i);
  out.count = count();
  out.sum = sum();
  return out;
}

std::span<const double> Histogram::default_time_buckets() {
  static const std::vector<double> kBuckets = {
      1e-6,   2.5e-6, 5e-6,   1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
      2.5e-3, 5e-3,   1e-2,   2.5e-2, 5e-2, 0.1,  0.25, 0.5,    1.0,  2.5,
      5.0,    10.0};
  return kBuckets;
}

Counter& MetricRegistry::counter(std::string_view name) {
  return find_or_create(mutex_, counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  return find_or_create(mutex_, gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::span<const double> bounds) {
  return find_or_create(mutex_, histograms_, name, [&] {
    return std::make_unique<Histogram>(bounds);
  });
}

MetricsSnapshot MetricRegistry::snapshot() const {
  std::shared_lock lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) out.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_)
    out.histograms.emplace(name, h->snapshot());
  return out;
}

std::string MetricRegistry::to_json() const { return snapshot().to_json(); }

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

}  // namespace pab::obs
