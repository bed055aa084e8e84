// Unit tests for the benchmark's own statistics and bookkeeping
// (perfbench/src/stats.h, feed.h). Plain asserts-that-survive-NDEBUG: the
// binary exits 1 on the first failed expectation.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "feed.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_checks = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    ++g_checks;                                                        \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                   \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // deliberately unsorted
  return v;
}

void TestPercentiles() {
  EXPECT(Percentile({}, 50) == 0.0);
  EXPECT(Percentile({7}, 0) == 7 && Percentile({7}, 100) == 7);
  // Nearest rank: the smallest sample with >= p% at or below it.
  EXPECT(Percentile(OneTo(100), 50) == 50);
  EXPECT(Percentile(OneTo(100), 99) == 99);
  EXPECT(Percentile(OneTo(100), 100) == 100);
  EXPECT(Percentile(OneTo(1000), 99) == 990);
  EXPECT(Percentile(OneTo(10), 25) == 3);   // ceil(2.5) = rank 3
  EXPECT(Median(OneTo(4)) == 2);            // lower middle
  EXPECT(Median(OneTo(5)) == 3);
}

void TestTailRule() {
  // Ten or fewer samples: no percentile has ten samples beyond it; under
  // 20 the only candidates lie below the median.
  EXPECT(!TailOf(OneTo(10)).ok);
  EXPECT(!TailOf(OneTo(19)).ok);
  // 20 samples: the median, with exactly ten above it.
  Tail t = TailOf(OneTo(20));
  EXPECT(t.ok && t.value == 10 && t.beyond == 10 && t.percentile == 50.0);
  // 40 samples: p75 (value 30), ten beyond.
  t = TailOf(OneTo(40));
  EXPECT(t.ok && t.value == 30 && t.beyond == 10 && t.percentile == 75.0);
  // 1000 samples: p99, which is also the nearest-rank p99.
  t = TailOf(OneTo(1000));
  EXPECT(t.ok && t.value == 990 && t.percentile == 99.0);
  EXPECT(t.value == Percentile(OneTo(1000), 99));
  // The rule always leaves exactly ten samples strictly beyond (distinct
  // values), never fewer.
  for (int n = 20; n < 300; ++n) {
    const std::vector<double> v = OneTo(n);
    t = TailOf(v);
    int above = 0;
    for (const double x : v) above += x > t.value ? 1 : 0;
    EXPECT(above == 10);
  }
}

void TestSummary() {
  const CallSummary s = Summarize({4, 1, 3, 2});
  EXPECT(s.count == 4 && s.total == 10 && s.min == 1 && s.max == 4);
  EXPECT(s.mean == 2.5 && s.p50 == 2 && !s.tail.ok);
  EXPECT(!FormatSummary("x ms", s, "ms").empty());
}

// Time advances only when a push costs time or the loop waits, which
// jumps straight to the target time.
struct FakeClock {
  int64_t now = 0;
};

void TestOpenLoopDueTimeAndLag() {
  FakeClock clock;
  OpenLoopSchedule schedule{/*start_ns=*/1000, /*interval_ns=*/100.0};
  EXPECT(schedule.DueNs(0) == 1000 && schedule.DueNs(3) == 1300);
  std::vector<int64_t> pushed_at;
  std::vector<double> lag;
  // Push 2 stalls for 350 ns. The schedule does not shift, so pushes 3, 4
  // and 5 all start late (by 250, 160 and 70 ns) while the backlog drains.
  RunOpenLoop(
      6, schedule, [&] { return clock.now; },
      [&](int64_t t) { clock.now = t; },
      [&](size_t i) {
        pushed_at.push_back(clock.now);
        clock.now += i == 2 ? 350 : 10;
      },
      &lag);
  EXPECT(pushed_at.size() == 6);
  EXPECT(pushed_at[0] == 1000 && pushed_at[1] == 1100 &&
         pushed_at[2] == 1200);
  EXPECT(pushed_at[3] == 1550 && pushed_at[4] == 1560);
  EXPECT(pushed_at[5] == 1570);  // due at 1500: still 70 ns late
  EXPECT(lag[0] == 0 && lag[1] == 0 && lag[2] == 0);
  EXPECT(lag[3] == 250 && lag[4] == 160 && lag[5] == 70);
  EXPECT(Percentile(lag, 99) == 250);
}

void TestLatencyFromDueTime() {
  // Three open-loop arrivals at timestamps 10, 20, 30, due at 1000, 2000,
  // 3000 ns. Arrival 20 is pushed late (at 2500); its results arrive at
  // 2600. Latency is counted from the due time: 600, not 100.
  const std::vector<int64_t> ts = {10, 20, 30};
  const std::vector<int64_t> due = {1000, 2000, 3000};
  LatencyRecorder rec(&ts, &due, /*num_queries=*/2, 16);
  int64_t now = 0;
  auto clock = [&] { return now; };
  now = 1050;
  EXPECT(rec.OnResult(0, 10, clock));
  EXPECT(!rec.OnResult(0, 10, clock));  // second result, same arrival
  now = 2600;
  EXPECT(rec.OnResult(0, 20, clock));
  EXPECT(rec.OnResult(1, 20, clock));  // other query: its own sample
  now = 3010;
  EXPECT(rec.OnResult(1, 30, clock));
  const std::vector<double>& s = rec.samples_ns();
  EXPECT(s.size() == 4);
  EXPECT(s[0] == 50 && s[1] == 600 && s[2] == 600 && s[3] == 10);
  // A result from before the open loop (timestamp 5) is not a sample.
  LatencyRecorder early(&ts, &due, 1, 4);
  EXPECT(!early.OnResult(0, 5, clock));
  EXPECT(early.samples_ns().empty());
}

void TestFeedAndReference() {
  const std::vector<Tuple> a = GenerateFeed(7, 500, 64, 5000);
  const std::vector<Tuple> b = GenerateFeed(7, 500, 64, 5000);
  const std::vector<Tuple> c = GenerateFeed(8, 500, 64, 5000);
  bool same = true;
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].timestamp == b[i].timestamp && a[i].key == b[i].key &&
           a[i].side == b[i].side;
    differs = differs || a[i].key != c[i].key;
    if (i > 0) EXPECT(a[i].timestamp > a[i - 1].timestamp);
  }
  EXPECT(same && differs);

  // Reference vs brute force, with fresh-start and removal intervals.
  const std::vector<QueryInterval> qs = {
      {2'000'000, 0, 5000}, {500'000, 0, 5000}, {1'000'000, 1200, 3100}};
  const std::vector<JoinTotals> ref = ReferenceJoin(a, 5000, 64, qs);
  for (size_t q = 0; q < qs.size(); ++q) {
    JoinTotals brute;
    for (size_t i = qs[q].from; i < qs[q].until; ++i) {
      for (size_t j = qs[q].from; j < i; ++j) {
        if (a[i].side == a[j].side || a[i].key != a[j].key) continue;
        if (a[i].timestamp - a[j].timestamp >= qs[q].window_ticks) continue;
        const Tuple& s0 = a[i].side == 0 ? a[i] : a[j];
        const Tuple& s1 = a[i].side == 0 ? a[j] : a[i];
        ++brute.count;
        brute.hash += PairHash(s0.seq, s1.seq);
      }
    }
    EXPECT(ref[q] == brute);
    EXPECT(brute.count > 0);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestTailRule();
  perfbench::TestSummary();
  perfbench::TestOpenLoopDueTimeAndLag();
  perfbench::TestLatencyFromDueTime();
  perfbench::TestFeedAndReference();
  std::printf("perfbench_stats_test: %d expectations passed\n",
              perfbench::g_checks);
  return 0;
}
