#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

// Innermost open span on this thread (the implicit parent of the next one).
thread_local std::int64_t t_current = kNoParent;

// Compact thread ids for the trace viewer.  BatchRunner starts fresh worker
// threads per map call; a thread returns its id when it exits, so the viewer
// shows a few lanes instead of one per short-lived thread.
class TidPool {
 public:
  int acquire() {
    const std::lock_guard lock(mutex_);
    if (free_.empty()) return next_++;
    const int id = free_.back();
    free_.pop_back();
    return id;
  }
  void release(int id) {
    const std::lock_guard lock(mutex_);
    free_.push_back(id);
  }

 private:
  std::mutex mutex_;
  std::vector<int> free_;
  int next_ = 0;
};

TidPool& tid_pool() {
  static TidPool pool;
  return pool;
}

struct ThreadTid {
  int id = tid_pool().acquire();
  ThreadTid() = default;
  ~ThreadTid() { tid_pool().release(id); }
  ThreadTid(const ThreadTid&) = delete;
  ThreadTid& operator=(const ThreadTid&) = delete;
};

int this_tid() {
  thread_local ThreadTid tid;
  return tid.id;
}

// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_s(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                 std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return static_cast<double>(covered) * 1e-9;
}

using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

// Child intervals of every span that has children, keyed by parent id.
std::unordered_map<std::int64_t, Intervals> child_intervals(
    const std::vector<SpanRecord>& all) {
  std::unordered_map<std::int64_t, Intervals> children;
  for (const SpanRecord& s : all)
    if (s.parent != kNoParent) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  return children;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<SpanRecord> all = spans();
  const auto children = child_intervals(all);
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : all) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    double self = dur;
    if (const auto it = children.find(s.id); it != children.end())
      self -= covered_s(it->second, s.start_ns, s.end_ns);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += dur;
    t.self_s += self;
  }
  return out;
}

double Tracer::min_child_coverage(const std::string& parent_name) const {
  const std::vector<SpanRecord> all = spans();
  const auto children = child_intervals(all);
  double worst = 1.0;
  for (const SpanRecord& s : all) {
    if (parent_name != s.name || s.end_ns <= s.start_ns) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const auto it = children.find(s.id);
    const double cov =
        it == children.end() ? 0.0 : covered_s(it->second, s.start_ns, s.end_ns);
    worst = std::min(worst, cov / dur);
  }
  return worst;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<SpanRecord> all = spans();
  all.resize(std::min(all.size(), max_spans));
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"pab\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld",
                 s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent));
    if (s.trial != kNoTrial)
      std::fprintf(f, ",\"trial\":%llu", static_cast<unsigned long long>(s.trial));
    std::fputs(i + 1 < all.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t trial,
           std::int64_t parent)
    : tracer_(tracer), saved_current_(t_current) {
  rec_.name = name;
  rec_.id = tracer_.next_id();
  rec_.parent = parent != kNoParent ? parent : t_current;
  rec_.trial = trial;
  rec_.tid = this_tid();
  t_current = rec_.id;
  rec_.start_ns = tracer_.now_ns();
}

Span::~Span() {
  rec_.end_ns = tracer_.now_ns();
  t_current = saved_current_;
  tracer_.record(rec_);
}

}  // namespace perfbench
