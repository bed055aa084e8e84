// Input generation and the independent reference join for the engine
// benchmark.
//
// The feed is a merged two-stream Poisson arrival process built from the
// run's seed alone; the engine only ever sees these tuples. The reference
// is a plain per-key hash join over the same feed that knows nothing of
// slices, chains or shards: for every registration interval it counts the
// equi-join pairs inside the query's window and sums an order-independent
// hash of their identities, honouring fresh-start semantics
// (src/api/engine.h): a query registered before arrival i and removed
// before arrival j sees exactly the pairs whose two constituents are both
// in arrivals [i, j).
#ifndef PERFBENCH_FEED_H_
#define PERFBENCH_FEED_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/tuple.h"

namespace perfbench {

using stateslice::Tuple;

// SplitMix64: tiny, seedable, and identical on every platform (unlike the
// standard distributions, whose output is implementation-defined).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Identity hash of one binary result (stream-0 seq, stream-1 seq); summed
// per query it is a multiset fingerprint independent of delivery order.
inline uint64_t PairHash(uint32_t seq_a, uint32_t seq_b) {
  return Mix64((static_cast<uint64_t>(seq_a) << 32) | seq_b);
}

// `n` arrivals of two independent Poisson streams of `rate_per_stream`
// tuples per virtual second each, merged in timestamp order. Timestamps
// (microsecond ticks) strictly increase, so every arrival is identified by
// its timestamp and a churn call between two arrivals never ties with the
// next one. Keys are uniform over [0, key_domain); values U(0, 1).
inline std::vector<Tuple> GenerateFeed(uint64_t seed, double rate_per_stream,
                                       int64_t key_domain, size_t n) {
  SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + 0x5851F42D4C957F2DULL);
  std::vector<Tuple> feed(n);
  const double mean_gap_ticks = 1e6 / (2.0 * rate_per_stream);
  int64_t ts = 1'000'000;  // first arrival ~1 s into virtual time
  uint32_t seq[2] = {0, 0};
  for (size_t i = 0; i < n; ++i) {
    const double gap = -std::log1p(-rng.Uniform()) * mean_gap_ticks;
    ts += std::max<int64_t>(1, std::llround(gap));
    Tuple& t = feed[i];
    t.timestamp = ts;
    t.side = static_cast<stateslice::StreamId>(rng.Next() & 1);
    t.key = static_cast<int64_t>(rng.Next() %
                                 static_cast<uint64_t>(key_domain));
    t.value = rng.Uniform();
    t.seq = seq[t.side]++;
  }
  return feed;
}

// Arrivals needed to span `virtual_seconds` of the feed, from its start.
inline size_t ArrivalsSpanning(const std::vector<Tuple>& feed,
                               double virtual_seconds) {
  const int64_t end =
      feed.front().timestamp + std::llround(virtual_seconds * 1e6);
  size_t i = 0;
  while (i < feed.size() && feed[i].timestamp < end) ++i;
  return i;
}

// One registration interval of one query: it sees arrivals [from, until).
struct QueryInterval {
  int64_t window_ticks = 0;
  size_t from = 0;
  size_t until = 0;
};

struct JoinTotals {
  uint64_t count = 0;
  uint64_t hash = 0;  // sum of PairHash over the delivered results

  friend bool operator==(const JoinTotals&, const JoinTotals&) = default;
};

// Reference equi-join over feed[0, n): per interval, the pairs (a, b) with
// a on stream 0, b on stream 1, equal keys, |a.ts - b.ts| < window and
// both arrivals inside [from, until).
inline std::vector<JoinTotals> ReferenceJoin(
    const std::vector<Tuple>& feed, size_t n, int64_t key_domain,
    const std::vector<QueryInterval>& intervals) {
  std::vector<JoinTotals> totals(intervals.size());
  int64_t max_window = 0;
  // Intervals that saw no arrival have nothing to count.
  std::vector<size_t> live;
  for (size_t q = 0; q < intervals.size(); ++q) {
    if (intervals[q].from >= intervals[q].until) continue;
    live.push_back(q);
    max_window = std::max(max_window, intervals[q].window_ticks);
  }
  // Per stream and key, the newest arrival; prev[i] chains arrival i to
  // the previous arrival with the same stream and key.
  std::vector<int64_t> last[2] = {
      std::vector<int64_t>(static_cast<size_t>(key_domain), -1),
      std::vector<int64_t>(static_cast<size_t>(key_domain), -1)};
  std::vector<int64_t> prev(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const Tuple& x = feed[i];
    const size_t key = static_cast<size_t>(x.key);
    for (int64_t j = last[1 - x.side][key]; j >= 0;
         j = prev[static_cast<size_t>(j)]) {
      const Tuple& y = feed[static_cast<size_t>(j)];
      const int64_t gap = x.timestamp - y.timestamp;
      if (gap >= max_window) break;
      const uint64_t h = x.side == 0 ? PairHash(x.seq, y.seq)
                                     : PairHash(y.seq, x.seq);
      for (const size_t q : live) {
        const QueryInterval& iv = intervals[q];
        if (gap < iv.window_ticks && static_cast<size_t>(j) >= iv.from &&
            i < iv.until) {
          ++totals[q].count;
          totals[q].hash += h;
        }
      }
    }
    prev[i] = last[x.side][key];
    last[x.side][key] = static_cast<int64_t>(i);
  }
  return totals;
}

}  // namespace perfbench

#endif  // PERFBENCH_FEED_H_
