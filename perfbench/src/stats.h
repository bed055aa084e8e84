// Statistics used by the engine benchmark: nearest-rank percentiles, the
// "highest percentile with at least ten samples beyond it" tail rule, the
// per-call summary printed by the traced run, and the open-loop latency /
// generator-lag bookkeeping. Header-only so the unit test links nothing
// but this file.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Samples beyond the tail percentile (choosing-metrics: "the highest
// percentile that has at least ten samples beyond it").
inline constexpr size_t kTailBeyond = 10;

// Nearest-rank percentile of an ascending vector: the smallest sample with
// at least p% of the samples at or below it. p in [0, 100]; empty -> 0.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

// Copying convenience for unsorted input.
inline double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// The highest percentile with at least kTailBeyond samples strictly above
// it: the (kTailBeyond+1)-th largest sample, at percentile 100*(n-10)/n.
// Below 2*kTailBeyond samples that percentile would fall under the median,
// so `ok` is false there and no tail is reported.
struct Tail {
  bool ok = false;
  double value = 0.0;
  double percentile = 0.0;  // e.g. 75.0 for 40 samples, 99.0 for 1000
  size_t beyond = 0;        // samples strictly above `value`'s rank
};

inline Tail TailOfSorted(const std::vector<double>& sorted) {
  Tail tail;
  const size_t n = sorted.size();
  if (n < 2 * kTailBeyond) return tail;
  const size_t rank = n - kTailBeyond;  // 1-based nearest rank
  tail.ok = true;
  tail.value = sorted[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

inline Tail TailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return TailOfSorted(values);
}

// qtool-style per-call summary: count, total, min, max, mean, p50 and the
// tail percentile with its sample count.
struct CallSummary {
  size_t count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  Tail tail;
};

inline CallSummary Summarize(std::vector<double> values) {
  CallSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  for (const double v : values) s.total += v;
  s.min = values.front();
  s.max = values.back();
  s.mean = s.total / static_cast<double>(values.size());
  s.p50 = PercentileSorted(values, 50.0);
  s.tail = TailOfSorted(values);
  return s;
}

// One line of the traced run's per-call table; values in `unit`.
inline std::string FormatSummary(const std::string& name,
                                 const CallSummary& s,
                                 const std::string& unit) {
  char buf[512];
  if (s.tail.ok) {
    std::snprintf(buf, sizeof(buf),
                  "  %-34s n=%-9zu total=%.4g %s min=%.4g max=%.4g "
                  "mean=%.4g p50=%.4g p%.4g=%.4g (%zu beyond)",
                  name.c_str(), s.count, s.total, unit.c_str(), s.min, s.max,
                  s.mean, s.p50, s.tail.percentile, s.tail.value,
                  s.tail.beyond);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  %-34s n=%-9zu total=%.4g %s min=%.4g max=%.4g "
                  "mean=%.4g p50=%.4g (no tail: < %zu samples)",
                  name.c_str(), s.count, s.total, unit.c_str(), s.min, s.max,
                  s.mean, s.p50, 2 * kTailBeyond);
  }
  return buf;
}

// --- open loop --------------------------------------------------------------

// Fixed wall-clock schedule: arrival i of the open loop is due at
// start_ns + i * interval_ns, whatever happened to earlier arrivals.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  double interval_ns = 0.0;

  int64_t DueNs(size_t i) const {
    return start_ns +
           static_cast<int64_t>(std::llround(static_cast<double>(i) *
                                             interval_ns));
  }
};

// Runs `count` open-loop pushes: waits until each arrival is due, then
// pushes it. A push that starts late is not re-based: the schedule keeps
// its original due times, so a stall charges every later arrival.
// `lag_ns` receives how late each push started (0 when on time).
//   now()          -> current time in ns
//   wait_until(t)  -> returns at or after time t
//   push(i)        -> pushes arrival i
template <typename NowFn, typename WaitFn, typename PushFn>
void RunOpenLoop(size_t count, const OpenLoopSchedule& schedule, NowFn&& now,
                 WaitFn&& wait_until, PushFn&& push,
                 std::vector<double>* lag_ns) {
  for (size_t i = 0; i < count; ++i) {
    const int64_t due = schedule.DueNs(i);
    int64_t t = now();
    if (t < due) {
      wait_until(due);
      t = now();
    }
    if (lag_ns != nullptr) lag_ns->push_back(static_cast<double>(t - due));
    push(i);
  }
}

// Matches delivered results to the arrival that produced them and records
// delivery latency from that arrival's *due* time. `timestamps` are the
// open-loop arrivals' timestamps (strictly increasing) and `due_ns` their
// scheduled send times. Per query, results are delivered in timestamp
// order and a result's timestamp is that of its newest constituent, so the
// first result carrying a new timestamp is the first result the arrival
// with that timestamp produced for the query: one sample per (query,
// arrival) pair that produced any result. Single writer per instance.
class LatencyRecorder {
 public:
  LatencyRecorder(const std::vector<int64_t>* timestamps,
                  const std::vector<int64_t>* due_ns, size_t num_queries,
                  size_t reserve)
      : timestamps_(timestamps),
        due_ns_(due_ns),
        cursor_(num_queries, 0),
        last_ts_(num_queries, INT64_MIN) {
    // Sized and written once here, so recording neither reallocates nor
    // faults in new pages while the open loop runs.
    samples_ns_.resize(reserve);
    samples_ns_.clear();
  }

  // Called for every delivered result of query `q`. Returns true when the
  // result produced a sample. Results older than the first open-loop
  // arrival (held back from an earlier phase) are ignored.
  template <typename NowFn>
  bool OnResult(size_t q, int64_t ts, NowFn&& now) {
    if (ts == last_ts_[q]) return false;
    last_ts_[q] = ts;
    const std::vector<int64_t>& tss = *timestamps_;
    size_t& c = cursor_[q];
    while (c < tss.size() && tss[c] < ts) ++c;
    if (c == tss.size() || tss[c] != ts) return false;
    samples_ns_.push_back(static_cast<double>(now() - (*due_ns_)[c]));
    return true;
  }

  const std::vector<double>& samples_ns() const { return samples_ns_; }

 private:
  const std::vector<int64_t>* timestamps_;
  const std::vector<int64_t>* due_ns_;
  std::vector<size_t> cursor_;
  std::vector<int64_t> last_ts_;
  std::vector<double> samples_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
