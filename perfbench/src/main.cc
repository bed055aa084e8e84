// Engine benchmark driver: runs one workload through the public Engine API
// (src/api) and prints its metrics. See perfbench/README.md for the run
// shape, the workloads and the metric -> layer map.
//
//   stateslice_perfbench --workload chain_sharded --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Any result that differs from the reference join exits 1
// without that line.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "feed.h"
#include "metrics.h"
#include "src/api/engine.h"
#include "src/core/chain_builder.h"
#include "src/core/shared_plan_builder.h"
#include "src/core/sharded_plan.h"
#include "src/operators/join_state.h"
#include "src/query/parser.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/spsc_queue.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stateslice::CostCategory;
using stateslice::Engine;
using stateslice::JoinResult;
using stateslice::PhysCategory;
using stateslice::QueryHandle;
using stateslice::RunStats;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(1);
}

// Fraction of --seconds spent in the closed loop, the open loop and the
// maintenance phase.
constexpr double kClosedShare = 0.6;
constexpr double kOpenShare = 0.25;
constexpr double kMaintenanceShare = 0.15;
// Maintenance reps: at least this many (enough churn cycles for a tail,
// see stats.h), and no more than the cap, even if the phase's time share
// would allow it.
constexpr size_t kMinMaintenanceReps = 20;
constexpr size_t kMaxMaintenanceReps = 50;
// Set-ups per untraced run (setup_s is their median); the last
// kSetupRepsAtEnd of them run after the checks, so that the set-ups are
// spread over the run.
constexpr int kSetupReps = 5;
constexpr int kSetupRepsAtEnd = 2;
// Closed-loop blocks every run pushes regardless of time: the fixed,
// seed-determined segment the traced run's work counters cover.
constexpr size_t kFixedBlocks = 3;
// Upper bound on closed-loop speed, only to size the generated feed; a
// faster engine ends the closed loop early, at the feed's end.
constexpr double kMaxClosedRate = 150000;
constexpr size_t kMinLatencySamples = 1000;

// Per-call timing name of one register + unregister cycle.
constexpr char kChurnCycle[] = "Engine::RegisterQuery+UnregisterQuery ms";

std::string Cql(double window_s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW %g ms",
                window_s * 1000.0);
  return buf;
}

int64_t Ticks(double seconds) { return std::llround(seconds * 1e6); }

// --- result delivery --------------------------------------------------------

struct Slot {
  uint64_t count = 0;
  uint64_t hash = 0;
};

// Written by the thread that runs subscription callbacks (the caller in
// deterministic mode, the merge worker in sharded mode); read by the
// caller only after Drain/Finish joined that thread, except `delivered`,
// `recorder` and `generation`, which cross threads while the engine runs.
struct Delivery {
  explicit Delivery(size_t max_slots) : slots(max_slots) {}

  // `gen` is the engine generation the subscription belongs to: results
  // from an engine that a restored one has taken over are not counted (the
  // restored engine delivers them from its snapshot).
  void OnResult(size_t slot, uint64_t gen, const JoinResult& r) {
    if (gen != generation.load(std::memory_order_acquire)) return;
    Slot& s = slots[slot];
    ++s.count;
    s.hash += PairHash(r.a.seq, r.b.seq);
    delivered.store(delivered.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    if (LatencyRecorder* rec = recorder.load(std::memory_order_acquire)) {
      rec->OnResult(slot, r.timestamp(), NowNs);
    }
  }

  std::vector<Slot> slots;
  std::atomic<uint64_t> delivered{0};
  std::atomic<LatencyRecorder*> recorder{nullptr};
  std::atomic<uint64_t> generation{0};
};

// --- per-call timings -------------------------------------------------------

// Wall times of public calls, by name, in the unit of the name's suffix.
class Calls {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  const std::vector<double>& Get(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = values_.find(name);
    return it == values_.end() ? kEmpty : it->second;
  }
  std::vector<double>* Mutable(const std::string& name) {
    return &values_[name];
  }
  void Print() const {
    std::printf("per-call summary (wall time per call):\n");
    for (const auto& [name, values] : values_) {
      const size_t space = name.rfind(' ');
      const std::string unit =
          space == std::string::npos ? "" : name.substr(space + 1);
      std::printf("%s\n", FormatSummary(name, Summarize(values), unit).c_str());
    }
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// --- one engine session -----------------------------------------------------

struct HandleRec {
  QueryHandle handle;
  size_t slot = 0;
  int64_t window_ticks = 0;
  size_t from = 0;
  size_t until = SIZE_MAX;  // SIZE_MAX while registered
  std::string cql;
  double register_ms = 0;  // the timed RegisterQuery call, if any
};

// Counters that must repeat exactly for a seed in deterministic mode.
struct WorkCounters {
  std::vector<uint64_t> values;
  std::vector<std::string> names;

  void Add(const std::string& name, uint64_t v) {
    names.push_back(name);
    values.push_back(v);
  }
};

WorkCounters CountersOf(const RunStats& s) {
  WorkCounters c;
  for (int i = 0; i < static_cast<int>(CostCategory::kCategoryCount); ++i) {
    const auto cat = static_cast<CostCategory>(i);
    c.Add(std::string("cost.") + stateslice::CostCounters::Name(cat),
          s.cost.Get(cat));
  }
  for (int i = 0; i < static_cast<int>(PhysCategory::kPhysCategoryCount);
       ++i) {
    const auto cat = static_cast<PhysCategory>(i);
    c.Add(std::string("phys.") + stateslice::CostCounters::Name(cat),
          s.cost.GetPhysical(cat));
  }
  c.Add("events_processed", s.events_processed);
  c.Add("results_delivered", s.results_delivered);
  c.Add("input_tuples", s.input_tuples);
  c.Add("state_tuples",
        s.memory_samples.empty() ? 0 : s.memory_samples.back().state_tuples);
  return c;
}

class Session {
 public:
  Session(const WorkloadConfig& cfg, const std::vector<Tuple>* feed,
          size_t max_slots, Calls* calls)
      : cfg_(cfg), feed_(feed), delivery_(max_slots), calls_(calls) {
    options_.mode = cfg.mode;
    if (cfg.mode == stateslice::ExecutionMode::kSharded) {
      options_.shard_count = cfg.shards;
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Engine& engine() { return *engine_; }
  const std::vector<Tuple>& feed() const { return *feed_; }
  Delivery& delivery() { return delivery_; }
  const std::vector<HandleRec>& handles() const { return handles_; }
  size_t next() const { return next_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t migrations() const { return migrations_; }
  uint64_t rebuilds() const { return rebuilds_; }
  const std::vector<uint64_t>& snapshot_bytes() const {
    return snapshot_bytes_;
  }
  const std::vector<double>& snapshot_state_tuples() const {
    return snapshot_state_tuples_;
  }

  // Set-up phase: construct, register every base query (and the toggled
  // one, which starts registered), subscribe, and fill the largest window.
  // Returns the wall seconds it took.
  double Setup(size_t fill) {
    const int64_t t0 = NowNs();
    engine_ = std::make_unique<Engine>(options_);
    for (const double w : cfg_.windows_s) Register(w, /*at=*/0);
    if (cfg_.churn_every_vs > 0) {
      toggle_ = Register(cfg_.toggle_window_s, 0);
    }
    for (; next_ < fill; ++next_) PushNext();
    engine_->Drain();
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }

  // Pushes feed[next()] and advances.
  void PushNext() {
    const Tuple& t = (*feed_)[next_];
    ++attempted_;
    engine_->Push(t.side, t);
  }
  void Advance() { ++next_; }

  // A churn op of the closed loop, run before pushing feed[i] when
  // churn_at[i] (see ChurnSchedule): the churn query is removed or
  // registered again; op 0 and every kCkptEveryOps-th op after it then
  // hand the engine over to a restored copy.
  void ChurnOp() {
    if (toggle_ == SIZE_MAX) {
      toggle_ = TimedRegister(cfg_.toggle_window_s, next_, /*subscribe=*/true);
    } else {
      TimedUnregister(toggle_, next_);
      toggle_ = SIZE_MAX;
    }
    if (churn_ops_++ % kCkptEveryOps == 0) {
      CheckpointTakeover(/*probe_churn=*/false);
    }
  }

  // Registers a query at arrival index `at` (subscribing to it when
  // `subscribe`); returns its handle index (SIZE_MAX when rejected).
  size_t TimedRegister(double window_s, size_t at, bool subscribe) {
    const uint64_t m0 = engine_->migrations();
    const uint64_t r0 = engine_->rebuilds();
    const std::string cql = Cql(window_s);
    const int64_t t0 = NowNs();
    const QueryHandle h = engine_->RegisterQuery(cql);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    calls_->Add("Engine::RegisterQuery ms", ms);
    migrations_ += engine_->migrations() - m0;
    rebuilds_ += engine_->rebuilds() - r0;
    const size_t idx = Track(h, window_s, at, cql, subscribe);
    if (idx != SIZE_MAX) handles_[idx].register_ms = ms;
    return idx;
  }

  void TimedUnregister(size_t idx, size_t at) {
    HandleRec& rec = handles_[idx];
    const uint64_t m0 = engine_->migrations();
    const uint64_t r0 = engine_->rebuilds();
    ++attempted_;
    const int64_t t0 = NowNs();
    const bool ok = engine_->UnregisterQuery(rec.handle);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    calls_->Add("Engine::UnregisterQuery ms", ms);
    migrations_ += engine_->migrations() - m0;
    rebuilds_ += engine_->rebuilds() - r0;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: unregister failed: %s\n",
                   engine_->last_error().c_str());
      return;
    }
    rec.until = at;
    // One churn cycle: the query's registration plus its removal.
    calls_->Add(kChurnCycle, rec.register_ms + ms);
  }

  // Checkpoints the engine and restores the snapshot into a fresh engine,
  // which takes over with its subscriptions re-established. With
  // `probe_churn` (the maintenance phase), the churn query is registered
  // and removed on the old engine in between: no arrival sees it, and
  // since the fresh engine continues from the snapshot, the churn cannot
  // change any result even where it rebuilds the plan (sharded mode).
  void CheckpointTakeover(bool probe_churn) {
    std::string snap;
    if (record_state_) {
      const RunStats s = engine_->Snapshot();
      snapshot_state_tuples_.push_back(
          static_cast<double>(s.memory_samples.back().state_tuples));
    }
    ++attempted_;
    int64_t t0 = NowNs();
    const bool ok = engine_->Checkpoint(&snap);
    calls_->Add("Engine::Checkpoint ms",
                static_cast<double>(NowNs() - t0) * 1e-6);
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: checkpoint failed: %s\n",
                   engine_->last_error().c_str());
      return;
    }
    snapshot_bytes_.push_back(snap.size());
    auto fresh = std::make_unique<Engine>(options_);
    ++attempted_;
    t0 = NowNs();
    const bool restored = fresh->Restore(snap);
    calls_->Add("Engine::Restore ms",
                static_cast<double>(NowNs() - t0) * 1e-6);
    if (!restored) {
      ++failed_;
      std::fprintf(stderr, "perfbench: restore failed: %s\n",
                   fresh->last_error().c_str());
      return;
    }
    delivery_.generation.fetch_add(1, std::memory_order_acq_rel);
    for (const HandleRec& rec : handles_) {
      if (rec.until == SIZE_MAX) Subscribe(fresh.get(), rec);
    }
    if (probe_churn) {
      const size_t h = TimedRegister(cfg_.toggle_window_s, next_,
                                     /*subscribe=*/false);
      if (h != SIZE_MAX) TimedUnregister(h, next_);
    }
    engine_ = std::move(fresh);
  }

  // Keep a Snapshot-based state size next to every checkpoint (traced).
  void set_record_state(bool on) { record_state_ = on; }

  // Per-handle reference intervals over the arrivals pushed so far.
  std::vector<QueryInterval> Intervals() const {
    std::vector<QueryInterval> out;
    for (const HandleRec& rec : handles_) {
      out.push_back({rec.window_ticks, rec.from,
                     rec.until == SIZE_MAX ? next_ : rec.until});
    }
    return out;
  }

 private:
  size_t Register(double window_s, size_t at) {
    const std::string cql = Cql(window_s);
    return Track(engine_->RegisterQuery(cql), window_s, at, cql,
                 /*subscribe=*/true);
  }

  size_t Track(QueryHandle h, double window_s, size_t at,
               const std::string& cql, bool subscribe) {
    ++attempted_;
    if (!h.valid()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: register failed: %s\n",
                   engine_->last_error().c_str());
      return SIZE_MAX;
    }
    if (handles_.size() == delivery_.slots.size()) {
      Fail("more registrations than result slots");
    }
    HandleRec rec;
    rec.handle = h;
    rec.slot = handles_.size();
    rec.window_ticks = Ticks(window_s);
    rec.from = at;
    rec.cql = cql;
    handles_.push_back(rec);
    if (subscribe) Subscribe(engine_.get(), handles_.back());
    return handles_.size() - 1;
  }

  void Subscribe(Engine* engine, const HandleRec& rec) {
    Delivery* d = &delivery_;
    const size_t slot = rec.slot;
    const uint64_t gen = delivery_.generation.load(std::memory_order_relaxed);
    if (!engine->Subscribe(rec.handle, [d, slot, gen](const JoinResult& r) {
          d->OnResult(slot, gen, r);
        })) {
      Fail("subscribe failed: " + engine->last_error());
    }
  }

  const WorkloadConfig& cfg_;
  const std::vector<Tuple>* feed_;
  Engine::Options options_;
  std::unique_ptr<Engine> engine_;
  Delivery delivery_;
  Calls* calls_;
  std::vector<HandleRec> handles_;
  size_t next_ = 0;
  size_t toggle_ = SIZE_MAX;
  uint64_t churn_ops_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t migrations_ = 0;
  uint64_t rebuilds_ = 0;
  std::vector<uint64_t> snapshot_bytes_;
  std::vector<double> snapshot_state_tuples_;
  bool record_state_ = false;
};

// Arrival indices in [fill, n) before which a closed-loop churn op runs:
// one every churn_every_vs virtual seconds, the first at feed[fill].
std::vector<bool> ChurnSchedule(const WorkloadConfig& cfg,
                                const std::vector<Tuple>& feed, size_t fill) {
  std::vector<bool> at(feed.size(), false);
  if (cfg.churn_every_vs <= 0 || fill >= feed.size()) return at;
  const int64_t every = Ticks(cfg.churn_every_vs);
  int64_t due = feed[fill].timestamp;
  for (size_t i = fill; i < feed.size(); ++i) {
    if (feed[i].timestamp >= due) {
      at[i] = true;
      due += every;
    }
  }
  return at;
}

// Closed-loop block boundaries: the first arrival at or after every
// multiple of kBlockVs virtual seconds past feed[fill]. Block k covers
// [ends[k-1], ends[k]) (block 0 starts at fill); with churn, every block
// starts with a checkpoint-takeover op and holds the same number of ops.
std::vector<size_t> BlockEnds(const std::vector<Tuple>& feed, size_t fill) {
  std::vector<size_t> ends;
  if (fill >= feed.size()) return ends;
  const int64_t every = Ticks(kBlockVs);
  int64_t due = feed[fill].timestamp + every;
  for (size_t i = fill; i < feed.size(); ++i) {
    if (feed[i].timestamp >= due) {
      ends.push_back(i);
      due += every;
    }
  }
  return ends;
}

// --- closed loop ------------------------------------------------------------

struct ClosedLoopResult {
  std::vector<double> tuple_rates;   // per untraced block, tuples/s
  std::vector<double> result_rates;  // per untraced block, results/s
  size_t arrivals = 0;               // pushed in untraced blocks
  double ns = 0;                     // their total block time
};

// What the traced run records in its closed loop: every other block is
// traced (per-Push wall times, heap allocations), the blocks in between
// are not, so the two rates give the tracing overhead on the same state.
struct ClosedLoopTrace {
  std::vector<double> push_ns;
  std::vector<double> tuple_rates;  // per traced block
  size_t arrivals = 0;              // pushed in traced blocks
  AllocTotals allocs;               // made during traced blocks
};

// Pushes whole blocks (see BlockEnds) as fast as Push returns, until
// `seconds` elapsed (at least `min_blocks`, at most `max_blocks` and the
// feed's end). A block's time covers its churn ops, and it ends with
// Engine::Drain, so it also covers processing every arrival it pushed.
ClosedLoopResult ClosedLoop(Session* s, const std::vector<bool>& churn_at,
                            const std::vector<size_t>& block_ends,
                            double seconds, size_t min_blocks,
                            size_t max_blocks, size_t feed_end,
                            ClosedLoopTrace* trace) {
  std::vector<double> block_ns;
  std::vector<double> block_results;
  std::vector<size_t> block_arrivals;
  std::vector<bool> block_traced;
  const int64_t start = NowNs();
  while (block_ns.size() < max_blocks) {
    const auto end_it =
        std::upper_bound(block_ends.begin(), block_ends.end(), s->next());
    if (end_it == block_ends.end() || *end_it > feed_end) break;
    if (block_ns.size() >= min_blocks &&
        static_cast<double>(NowNs() - start) * 1e-9 >= seconds) {
      break;
    }
    const size_t block = *end_it - s->next();
    const bool traced = trace != nullptr && block_ns.size() % 2 == 1;
    const uint64_t d0 = s->delivery().delivered.load(std::memory_order_relaxed);
    const AllocTotals a0 = AllocCounts();
    if (traced) SetAllocCounting(true);
    const int64_t b0 = NowNs();
    for (size_t k = 0; k < block; ++k) {
      if (churn_at[s->next()]) s->ChurnOp();
      if (traced) {
        const int64_t p0 = NowNs();
        s->PushNext();
        trace->push_ns.push_back(static_cast<double>(NowNs() - p0));
      } else {
        s->PushNext();
      }
      s->Advance();
    }
    // A block ends when its arrivals are processed, not merely enqueued:
    // a sharded Push only hands the tuple to a shard's ingress.
    s->engine().Drain();
    block_ns.push_back(static_cast<double>(NowNs() - b0));
    if (traced) {
      SetAllocCounting(false);
      const AllocTotals a1 = AllocCounts();
      trace->allocs.allocs += a1.allocs - a0.allocs;
      trace->allocs.bytes += a1.bytes - a0.bytes;
      trace->arrivals += block;
    }
    block_results.push_back(static_cast<double>(
        s->delivery().delivered.load(std::memory_order_relaxed) - d0));
    block_arrivals.push_back(block);
    block_traced.push_back(traced);
  }
  if (block_ns.empty()) Fail("closed loop ran no block (feed too short)");
  ClosedLoopResult out;
  for (size_t b = 0; b < block_ns.size(); ++b) {
    const size_t block = block_arrivals[b];
    const double rate = static_cast<double>(block) * 1e9 / block_ns[b];
    if (block_traced[b]) {
      trace->tuple_rates.push_back(rate);
      continue;
    }
    out.tuple_rates.push_back(rate);
    out.result_rates.push_back(block_results[b] * 1e9 / block_ns[b]);
    out.arrivals += block;
    out.ns += block_ns[b];
  }
  return out;
}

// --- open loop --------------------------------------------------------------

// The open loop's buffers, allocated (and their pages touched) before the
// set-up, so that the recording does not grow the resident set that
// peak_rss_mb attributes to the engine. At most `queries` latency samples
// per arrival.
struct OpenLoop {
  OpenLoop(size_t count, size_t max_slots, size_t queries)
      : timestamps(count),
        due(count),
        recorder(&timestamps, &due, max_slots, count * queries + 1024),
        lag_ns(count) {
    lag_ns.clear();
  }

  // Pushes the next timestamps.size() arrivals on a fixed schedule of
  // `rate` per second and records one latency sample per (query, arrival)
  // that produced results (LatencyRecorder).
  void Run(Session* s, double rate) {
    const size_t first = s->next();
    for (size_t i = 0; i < timestamps.size(); ++i) {
      timestamps[i] = s->feed()[first + i].timestamp;
    }
    OpenLoopSchedule schedule;
    schedule.interval_ns = 1e9 / rate;
    schedule.start_ns = NowNs() + 1'000'000;
    for (size_t i = 0; i < due.size(); ++i) due[i] = schedule.DueNs(i);
    s->delivery().recorder.store(&recorder, std::memory_order_release);
    RunOpenLoop(
        timestamps.size(), schedule, NowNs,
        [](int64_t t) {
          while (NowNs() < t) {
          }
        },
        [s](size_t) {
          s->PushNext();
          s->Advance();
        },
        &lag_ns);
    s->engine().Drain();
    s->delivery().recorder.store(nullptr, std::memory_order_release);
    // A callback that loaded the recorder before the store above has
    // finished once this Drain joins the callback thread (sharded mode).
    s->engine().Drain();
  }

  size_t arrivals() const { return timestamps.size(); }
  const std::vector<double>& latency_ns() const {
    return recorder.samples_ns();
  }

  std::vector<int64_t> timestamps;
  std::vector<int64_t> due;
  LatencyRecorder recorder;
  std::vector<double> lag_ns;
};

// --- checks -----------------------------------------------------------------

// Compares every registration's delivered results with the reference join
// and with the engine's own ResultCount. Exits 1 on any mismatch.
void VerifyAgainstReference(Session* s, const std::vector<Tuple>& feed,
                            int64_t key_domain) {
  const std::vector<QueryInterval> intervals = s->Intervals();
  const std::vector<JoinTotals> ref =
      ReferenceJoin(feed, s->next(), key_domain, intervals);
  size_t bad = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    const HandleRec& rec = s->handles()[i];
    const Slot& got = s->delivery().slots[rec.slot];
    const uint64_t engine_count = s->engine().ResultCount(rec.handle);
    total += ref[i].count;
    if (got.count != ref[i].count || got.hash != ref[i].hash ||
        engine_count != ref[i].count) {
      ++bad;
      std::fprintf(stderr,
                   "perfbench: MISMATCH query %zu (%s, arrivals [%zu, %zu)): "
                   "delivered %llu (hash %016llx), ResultCount %llu, "
                   "reference %llu (hash %016llx)\n",
                   i, rec.cql.c_str(), intervals[i].from, intervals[i].until,
                   static_cast<unsigned long long>(got.count),
                   static_cast<unsigned long long>(got.hash),
                   static_cast<unsigned long long>(engine_count),
                   static_cast<unsigned long long>(ref[i].count),
                   static_cast<unsigned long long>(ref[i].hash));
    }
  }
  if (bad > 0) Fail(std::to_string(bad) + " queries differ from the reference");
  std::printf("reference check: %zu registrations over %zu arrivals, "
              "%llu results, all equal to the reference join\n",
              intervals.size(), s->next(),
              static_cast<unsigned long long>(total));
}

// A "Vm...:" line of /proc/self/status (VmRSS, VmHWM) in MiB.
double ProcStatusMiB(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  Fail("no " + key + " in /proc/self/status");
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

// --- output -----------------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  // Prints the human-readable table and the final JSON line. Every metric
  // of `defs` must have been set.
  template <size_t N>
  void Print(const MetricDef (&defs)[N], bool correct, uint64_t attempted,
             uint64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) Fail(std::string("metric not set: ") + d.name);
      std::printf("  %-36s %-16.6g %s\n", d.name, it->second, d.unit);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", d.name, it->second, d.unit);
      json += buf;
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::map<std::string, double> values_;
};

// --- traced-run layer measurements -----------------------------------------

std::vector<stateslice::ContinuousQuery> BaseQueries(
    const WorkloadConfig& cfg) {
  std::vector<stateslice::ContinuousQuery> queries;
  for (const double w : cfg.windows_s) {
    stateslice::ParseResult p = stateslice::ParseQuery(Cql(w));
    if (!p.ok) Fail("parse failed: " + p.error);
    p.query.id = static_cast<int>(queries.size());
    p.query.name = "Q" + std::to_string(queries.size());
    queries.push_back(p.query);
  }
  return queries;
}

// Median timer overhead of one steady_clock read pair, in ns.
double TimerOverheadNs() {
  std::vector<double> v;
  for (int i = 0; i < 10001; ++i) {
    const int64_t a = NowNs();
    const int64_t b = NowNs();
    v.push_back(static_cast<double>(b - a));
  }
  return Median(v);
}

// ops.{insert,probe,purge}_ns: the arrivals replayed through two
// standalone key-indexed JoinStates at the largest window; only arrivals
// after the window filled are timed.
void MeasureJoinState(const WorkloadConfig& cfg,
                      const std::vector<Tuple>& feed, size_t fill, size_t end,
                      Calls* calls, Report* report) {
  double max_w = 0;
  for (const double w : cfg.windows_s) max_w = std::max(max_w, w);
  const auto window = stateslice::WindowSpec::Time(Ticks(max_w));
  stateslice::JoinState states[2] = {stateslice::JoinState(window),
                                     stateslice::JoinState(window)};
  states[0].EnableKeyIndex();
  states[1].EnableKeyIndex();
  const stateslice::JoinCondition cond = stateslice::JoinCondition::EquiKey();
  const double overhead = TimerOverheadNs();
  // Raw per-call times (timer overhead included) for the per-call table.
  std::vector<double>* purge = calls->Mutable("JoinState::Purge ns");
  std::vector<double>* probe = calls->Mutable("JoinState::Probe ns");
  std::vector<double>* insert = calls->Mutable("JoinState::Insert ns");
  uint64_t matches = 0;
  for (size_t i = 0; i < end; ++i) {
    const Tuple& x = feed[i];
    stateslice::JoinState& opp = states[1 - x.side];
    stateslice::JoinState& own = states[x.side];
    const int64_t t0 = NowNs();
    opp.Purge(x.timestamp, nullptr);
    const int64_t t1 = NowNs();
    opp.Probe(x, cond, [&matches](const Tuple&) { ++matches; });
    const int64_t t2 = NowNs();
    own.Insert(x);
    const int64_t t3 = NowNs();
    if (i >= fill) {
      purge->push_back(static_cast<double>(t1 - t0));
      probe->push_back(static_cast<double>(t2 - t1));
      insert->push_back(static_cast<double>(t3 - t2));
    }
  }
  report->Set("ops.purge_ns", Summarize(*purge).mean - overhead);
  report->Set("ops.probe_ns", Summarize(*probe).mean - overhead);
  report->Set("ops.insert_ns", Summarize(*insert).mean - overhead);
  std::printf("join-state replay: %zu timed arrivals, %llu matches; the "
              "metrics subtract the %.1f ns timer overhead\n",
              end - fill, static_cast<unsigned long long>(matches), overhead);
}

// The base queries as a core-built state-slice plan driven by
// RoundRobinScheduler directly (no Engine): feed[0, fill) fills the
// windows, feed[fill, end) is timed per RunUntilQuiescent call.
struct SchedulerReplay {
  WorkCounters counters;  // over feed[fill, end)
  uint64_t events = 0;
  std::vector<double> call_us;
  double us_per_tuple = 0;
};

SchedulerReplay ReplayScheduler(const WorkloadConfig& cfg,
                                const std::vector<Tuple>& feed, size_t fill,
                                size_t end) {
  const auto queries = BaseQueries(cfg);
  stateslice::BuiltPlan built = stateslice::BuildStateSlicePlan(
      queries, stateslice::BuildMemOptChain(queries));
  stateslice::RoundRobinScheduler sched(built.plan.get());
  for (size_t i = 0; i < fill; ++i) {
    built.entry->Push(feed[i]);
    sched.RunUntilQuiescent();
  }
  const uint64_t e0 = sched.total_processed();
  RunStats before;
  before.cost = built.plan->cost_counters();
  SchedulerReplay out;
  out.call_us.reserve(end - fill);
  const int64_t t0 = NowNs();
  for (size_t i = fill; i < end; ++i) {
    built.entry->Push(feed[i]);
    const int64_t c0 = NowNs();
    sched.RunUntilQuiescent();
    out.call_us.push_back(static_cast<double>(NowNs() - c0) * 1e-3);
  }
  out.us_per_tuple = static_cast<double>(NowNs() - t0) * 1e-3 /
                     static_cast<double>(end - fill);
  out.events = sched.total_processed() - e0;
  RunStats after;
  after.cost = built.plan->cost_counters();
  const WorkCounters b = CountersOf(before);
  out.counters = CountersOf(after);
  for (size_t i = 0; i < b.values.size(); ++i) {
    out.counters.values[i] -= b.values[i];
  }
  out.counters.Add("events_processed_replay", out.events);
  return out;
}

// rt.spsc_ns_per_event: the workload's arrivals as Events handed from one
// thread to another through an SpscQueue, in runs of 64.
void MeasureSpsc(const std::vector<Tuple>& feed, Calls* calls,
                 Report* report) {
  constexpr size_t kEvents = 1 << 18;
  constexpr size_t kRun = 64;
  constexpr int kReps = 5;
  std::vector<double>* per_event = calls->Mutable("SpscQueue handoff ns/event");
  for (int rep = 0; rep < kReps; ++rep) {
    stateslice::SpscQueue<stateslice::Event> ring(256);
    const int64_t t0 = NowNs();
    std::thread producer([&ring, &feed] {
      ring.AssertProducer();  // the only thread that pushes
      stateslice::EventRun run;
      for (size_t i = 0; i < kEvents;) {
        run.clear();
        for (size_t k = 0; k < kRun && i < kEvents; ++k, ++i) {
          run.push_back(stateslice::Event(feed[i % feed.size()]));
        }
        for (size_t from = 0; from < run.size();) {
          from += ring.TryPushRun(&run, from);
        }
      }
    });
    ring.AssertConsumer();  // this thread is the only one that pops
    stateslice::EventRun out;
    uint64_t popped_seq = 0;
    for (size_t got = 0; got < kEvents;) {
      out.clear();
      const size_t n = ring.TryPopRun(&out, kRun);
      for (size_t k = 0; k < n; ++k) {
        popped_seq += std::get<Tuple>(out[k]).seq;
      }
      got += n;
    }
    producer.join();
    per_event->push_back(static_cast<double>(NowNs() - t0) /
                         static_cast<double>(kEvents));
    uint64_t pushed_seq = 0;
    for (size_t i = 0; i < kEvents; ++i) pushed_seq += feed[i % feed.size()].seq;
    if (popped_seq != pushed_seq) Fail("spsc handoff lost or reordered data");
  }
  report->Set("rt.spsc_ns_per_event", Median(*per_event));
}

// query.* and core.*: parse and plan-build calls on the live query set.
void MeasureBuilders(const WorkloadConfig& cfg, Calls* calls,
                     Report* report) {
  std::vector<std::string> texts;
  for (const double w : cfg.windows_s) texts.push_back(Cql(w));
  if (cfg.churn_every_vs > 0) texts.push_back(Cql(cfg.toggle_window_s));
  std::vector<double>* parse = calls->Mutable("ParseQuery us");
  for (int rep = 0; rep < 200; ++rep) {
    for (const std::string& t : texts) {
      const int64_t t0 = NowNs();
      const stateslice::ParseResult p = stateslice::ParseQuery(t);
      parse->push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      if (!p.ok) Fail("parse failed: " + p.error);
    }
  }
  report->Set("query.parse_us_p50", Median(*parse));

  const auto queries = BaseQueries(cfg);
  std::vector<double>* spec = calls->Mutable("BuildMemOptChain us");
  for (int rep = 0; rep < 500; ++rep) {
    const int64_t t0 = NowNs();
    const stateslice::ChainPlan chain = stateslice::BuildMemOptChain(queries);
    spec->push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  report->Set("core.chain_spec_us", Median(*spec));

  const stateslice::ChainPlan chain = stateslice::BuildMemOptChain(queries);
  std::vector<double>* build = calls->Mutable("BuildStateSlicePlan ms");
  for (int rep = 0; rep < 50; ++rep) {
    const int64_t t0 = NowNs();
    stateslice::BuiltPlan built =
        stateslice::BuildStateSlicePlan(queries, chain);
    build->push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  report->Set("core.plan_build_ms", Median(*build));

  std::vector<double>* sharded = calls->Mutable("BuildShardedPlanSet ms");
  stateslice::BuildOptions shard_opt;
  for (int rep = 0; rep < 30; ++rep) {
    const int64_t t0 = NowNs();
    stateslice::ShardedPlanSet set = stateslice::BuildShardedPlanSet(
        2, queries, shard_opt, [&queries, &chain, &shard_opt] {
          return stateslice::BuildStateSlicePlan(queries, chain, shard_opt);
        });
    sharded->push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  report->Set("core.sharded_plan_build_ms", Median(*sharded));
}

// harness.callback_ns: the benchmark's own subscription callback, called
// directly with latency recording off.
double MeasureCallbackNs() {
  Delivery d(1);
  JoinResult r;
  r.a.seq = 7;
  r.b.seq = 11;
  const std::function<void(const JoinResult&)> cb =
      [&d](const JoinResult& res) { d.OnResult(0, 0, res); };
  constexpr int kCalls = 2'000'000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kCalls; ++i) {
    r.a.seq = static_cast<uint32_t>(i);
    cb(r);
  }
  const double ns = static_cast<double>(NowNs() - t0) / kCalls;
  if (d.slots[0].count != static_cast<uint64_t>(kCalls)) Fail("callback");
  return ns;
}

// --- the run ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool list_metrics = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value().c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--list-metrics") {
      a.list_metrics = true;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  return a;
}

void ListMetrics() {
  std::printf("{\"end_to_end\": [");
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kEndToEnd[i].name,
                kEndToEnd[i].unit);
  }
  std::printf("], \"per_layer\": [");
  for (size_t i = 0; i < std::size(kPerLayer); ++i) {
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kPerLayer[i].name,
                kPerLayer[i].unit);
  }
  std::printf("]}\n");
}

int Run(const Args& args) {
  const WorkloadConfig* cfg = nullptr;
  const std::vector<WorkloadConfig> all = Workloads();
  for (const WorkloadConfig& w : all) {
    if (w.name == args.workload) cfg = &w;
  }
  if (cfg == nullptr) Fail("unknown workload '" + args.workload + "'");
  if (args.seconds < 1) Fail("--seconds must be >= 1");
  const bool traced = args.trace != 0;

  // Thread budget: the caller, plus one worker per shard and the merge
  // worker in sharded mode; the traced SPSC handoff uses two.
  const bool sharded = cfg->mode == stateslice::ExecutionMode::kSharded;
  const int threads = std::max(sharded ? 1 + cfg->shards + 1 : 1,
                               traced ? 2 : 1);
  const int cpus = AvailableCpus();
  if (threads > cpus) {
    Fail("workload " + cfg->name + " needs " + std::to_string(threads) +
         " threads but only " + std::to_string(cpus) + " CPUs are available");
  }

  // Inputs, from the seed alone.
  const double closed_s = args.seconds * kClosedShare;
  const double open_s = args.seconds * kOpenShare;
  const double maintenance_s = args.seconds * kMaintenanceShare;
  double max_w = 0;
  for (const double w : cfg->windows_s) max_w = std::max(max_w, w);
  const size_t open_n = static_cast<size_t>(cfg->open_rate * open_s);
  const double block_arrivals = 2.0 * cfg->rate_per_stream * kBlockVs;
  const size_t closed_cap = static_cast<size_t>(
      std::max(kMaxClosedRate * closed_s,
               (kFixedBlocks + 1) * block_arrivals * 1.2));
  const double fill_vs = max_w;
  // Generate enough for the fill estimate plus both loops.
  const size_t fill_estimate =
      static_cast<size_t>(2.0 * cfg->rate_per_stream * fill_vs * 1.2) + 16;
  const std::vector<Tuple> feed =
      GenerateFeed(args.seed, cfg->rate_per_stream, cfg->key_domain,
                   fill_estimate + closed_cap + open_n);
  const size_t fill = ArrivalsSpanning(feed, fill_vs);
  // The closed loop stops where the last open_n arrivals begin.
  const size_t closed_end = feed.size() - open_n;
  const std::vector<bool> churn_at = ChurnSchedule(*cfg, feed, fill);
  const std::vector<size_t> block_ends = BlockEnds(feed, fill);
  if (block_ends.size() < kFixedBlocks ||
      block_ends[kFixedBlocks - 1] > closed_end) {
    Fail("feed too short for the fixed segment");
  }
  const size_t max_slots =
      cfg->windows_s.size() + 1 +
      static_cast<size_t>(std::count(churn_at.begin(), churn_at.end(), true)) +
      kMaxMaintenanceReps;

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d "
              "threads=%d/%d cpus\n",
              cfg->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, threads, cpus);
  std::printf("feed: %zu arrivals generated, set-up fill %zu (%.1f virtual "
              "s), blocks of %.0f virtual s, open loop %zu at %.0f/s\n",
              feed.size(), fill, fill_vs, kBlockVs, open_n,
              cfg->open_rate);

  Calls calls;
  Report report;
  OpenLoop open(open_n, max_slots, cfg->windows_s.size() + 1);
  // Everything the harness holds for the run is resident now; the engine's
  // share of the peak is what the process adds above this.
  const double baseline_rss = ProcStatusMiB("VmRSS");
  std::unique_ptr<Session> session;

  // 1. Set-up (the untraced run repeats it and reports the median).
  std::vector<double> setup_times;
  const int reps = traced ? 1 : kSetupReps - kSetupRepsAtEnd;
  for (int r = 0; r < reps; ++r) {
    session = std::make_unique<Session>(*cfg, &feed, max_slots, &calls);
    setup_times.push_back(session->Setup(fill));
  }
  session->set_record_state(traced);

  WorkCounters at_setup;
  WorkCounters at_fixed;
  std::vector<double> state_samples;
  auto sample_state = [&](WorkCounters* counters) {
    const RunStats s = session->engine().Snapshot();
    state_samples.push_back(
        static_cast<double>(s.memory_samples.back().state_tuples));
    if (counters != nullptr) *counters = CountersOf(s);
  };
  if (traced) sample_state(&at_setup);

  // 2. Closed loop. Its first kFixedBlocks blocks are the fixed segment,
  // always pushed; the traced run pushes them untraced (the baseline for
  // the trace overhead) and then runs its traced closed loop.
  const ClosedLoopResult fixed =
      ClosedLoop(session.get(), churn_at, block_ends,
                 traced ? 0.0 : closed_s, kFixedBlocks,
                 traced ? kFixedBlocks : SIZE_MAX, closed_end, nullptr);
  ClosedLoopResult closed = fixed;
  const size_t fixed_end = block_ends[kFixedBlocks - 1];
  const uint64_t fixed_migrations = session->migrations();
  const uint64_t fixed_rebuilds = session->rebuilds();
  const std::vector<uint64_t> fixed_snapshots = session->snapshot_bytes();
  ClosedLoopTrace trace;
  if (traced) {
    sample_state(&at_fixed);
    trace.push_ns.reserve(static_cast<size_t>(kMaxClosedRate * closed_s));
    closed = ClosedLoop(session.get(), churn_at, block_ends, closed_s,
                        2 * kFixedBlocks, SIZE_MAX, closed_end, &trace);
    sample_state(nullptr);
  }

  // 3. Open loop.
  open.Run(session.get(), cfg->open_rate);
  if (traced) sample_state(nullptr);
  const double engine_peak_mib = ProcStatusMiB("VmHWM") - baseline_rss;

  // 4. Maintenance: checkpoint, churn on the engine being retired, restore
  // into a fresh engine that takes over; repeated for the phase's time.
  {
    const int64_t m0 = NowNs();
    size_t n = 0;
    while (n < kMaxMaintenanceReps &&
           (n < kMinMaintenanceReps ||
            static_cast<double>(NowNs() - m0) * 1e-9 < maintenance_s)) {
      session->CheckpointTakeover(/*probe_churn=*/true);
      ++n;
    }
    std::printf("maintenance: %zu checkpoint/churn/restore reps in %.2f s\n",
                n, static_cast<double>(NowNs() - m0) * 1e-9);
  }

  // 5. Finish and verify.
  const RunStats before_finish = session->engine().Snapshot();
  const int64_t f0 = NowNs();
  session->engine().Finish();
  calls.Add("Engine::Finish ms", static_cast<double>(NowNs() - f0) * 1e-6);
  if (session->engine().rejected_tuples() > 0) {
    std::fprintf(stderr, "perfbench: %llu pushes rejected: %s\n",
                 static_cast<unsigned long long>(
                     session->engine().rejected_tuples()),
                 session->engine().last_error().c_str());
  }
  VerifyAgainstReference(session.get(), feed, cfg->key_domain);

  uint64_t attempted = session->attempted();
  uint64_t failed = session->failed() + session->engine().rejected_tuples();

  // Churn and checkpoint timings. A register and an unregister call cost
  // different amounts, so the churn metrics are taken over whole cycles.
  const std::vector<double>& churn = calls.Get(kChurnCycle);
  const Tail churn_tail = TailOf(churn);
  if (!churn_tail.ok) Fail("too few churn samples for a tail");
  if (open.latency_ns().size() < kMinLatencySamples) {
    Fail("only " + std::to_string(open.latency_ns().size()) +
         " latency samples (need " + std::to_string(kMinLatencySamples) + ")");
  }

  std::printf("closed loop: %zu arrivals in %zu blocks; open loop: %zu "
              "arrivals, %zu latency samples; churn: %zu cycles (tail "
              "p%.4g); checkpoints: %zu\n",
              closed.arrivals, closed.tuple_rates.size(), open.arrivals(),
              open.latency_ns().size(), churn.size(), churn_tail.percentile,
              calls.Get("Engine::Checkpoint ms").size());

  if (!traced) {
    // The rest of the set-ups, now that the engine is gone.
    session.reset();
    for (int r = 0; r < kSetupRepsAtEnd; ++r) {
      Session extra(*cfg, &feed, max_slots, &calls);
      setup_times.push_back(extra.Setup(fill));
    }
    std::printf("set-up: %zu reps, median %.4f s\n", setup_times.size(),
                Median(setup_times));
    report.Set("setup_s", Median(setup_times));

    // The closed-loop metrics are medians over blocks, each a whole churn
    // cycle with its compactions; the latency p50 is over the whole open
    // loop.
    report.Set("ingest_tps", Median(closed.tuple_rates));
    report.Set("results_per_s", Median(closed.result_rates));
    report.Set("latency_p50_us", Percentile(open.latency_ns(), 50) * 1e-3);
    const CallSummary blocks = Summarize(closed.tuple_rates);
    std::printf("closed-loop block rates (tuples/s): min %.6g p50 %.6g "
                "max %.6g over %zu blocks; all blocks together %.6g\n",
                blocks.min, blocks.p50, blocks.max, blocks.count,
                static_cast<double>(closed.arrivals) * 1e9 / closed.ns);
    std::printf("open-loop latency (us): p50 %.6g p90 %.6g p95 %.6g p99 "
                "%.6g p99.9 %.6g\n",
                Percentile(open.latency_ns(), 50) * 1e-3,
                Percentile(open.latency_ns(), 90) * 1e-3,
                Percentile(open.latency_ns(), 95) * 1e-3,
                Percentile(open.latency_ns(), 99) * 1e-3,
                Percentile(open.latency_ns(), 99.9) * 1e-3);
    std::printf("churn cycles (ms): p50 %.6g p%.4g %.6g over %zu cycles\n",
                Median(churn), churn_tail.percentile, churn_tail.value,
                churn.size());
    std::printf("resident set: %.1f MiB harness baseline, engine peak %.1f "
                "MiB above it\n",
                baseline_rss, engine_peak_mib);
    report.Set("peak_rss_mb", engine_peak_mib);
    report.Set("churn_ms", Median(churn));
    report.Set("checkpoint_ms", Median(calls.Get("Engine::Checkpoint ms")));
    report.Set("restore_ms", Median(calls.Get("Engine::Restore ms")));
    std::printf("end-to-end metrics:\n");
    // Reported through `failed` / `attempted` in the JSON line, not as a
    // metric: it is 0 on a correct run.
    std::printf("  %-36s %-16.6g %s\n", "failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio");
    report.Print(kEndToEnd, true, attempted, failed);
    return 0;
  }

  // --- traced run: per-layer metrics ---
  const double untraced_tps = Median(closed.tuple_rates);
  const double traced_tps = Median(trace.tuple_rates);
  report.Set("harness.trace_overhead_frac", 1.0 - traced_tps / untraced_tps);

  // Work counters over the fixed segment; deterministic mode must repeat
  // them exactly, which a second, independent engine checks here.
  const double fixed_n = static_cast<double>(fixed_end - fill);
  auto per_tuple = [&](const std::string& name) {
    for (size_t i = 0; i < at_fixed.names.size(); ++i) {
      if (at_fixed.names[i] == name) {
        return static_cast<double>(at_fixed.values[i] - at_setup.values[i]) /
               fixed_n;
      }
    }
    Fail("no counter " + name);
  };
  report.Set("ops.probe_cmp_per_tuple", per_tuple("cost.probe"));
  report.Set("ops.purge_cmp_per_tuple", per_tuple("cost.purge"));
  report.Set("ops.route_cmp_per_tuple", per_tuple("cost.route"));
  report.Set("ops.union_cmp_per_tuple", per_tuple("cost.union"));
  report.Set("ops.results_per_tuple", per_tuple("results_delivered"));
  // Engine::Snapshot folds only the logical cost categories, so the
  // physical ones come from the same queries as a core-built plan driven
  // by the scheduler directly; replayed twice, it must repeat exactly.
  SchedulerReplay sched = ReplayScheduler(*cfg, feed, fill, fixed_end);
  {
    const double n = static_cast<double>(fixed_end - fill);
    auto phys = [&](const std::string& name) {
      for (size_t i = 0; i < sched.counters.names.size(); ++i) {
        if (sched.counters.names[i] == name) {
          return static_cast<double>(sched.counters.values[i]) / n;
        }
      }
      Fail("no counter " + name);
    };
    report.Set("ops.key_lookups_per_tuple", phys("phys.key_lookup"));
    report.Set("ops.entry_visits_per_tuple", phys("phys.entry_visit"));
    report.Set("ops.index_upkeep_per_tuple", phys("phys.index_upkeep"));
    report.Set("rt.events_per_tuple", static_cast<double>(sched.events) / n);
    report.Set("rt.sched_us_per_tuple", sched.us_per_tuple);
    *calls.Mutable("RoundRobinScheduler::RunUntilQuiescent us") =
        sched.call_us;
  }
  report.Set("api.migrations", static_cast<double>(fixed_migrations));
  report.Set("api.rebuilds", static_cast<double>(fixed_rebuilds));
  if (!sharded) {
    Calls replay_calls;
    Session replay(*cfg, &feed, max_slots, &replay_calls);
    replay.set_record_state(true);  // same Snapshot calls as the main run
    replay.Setup(fill);
    const WorkCounters r_setup = CountersOf(replay.engine().Snapshot());
    ClosedLoop(&replay, churn_at, block_ends, 0.0, kFixedBlocks,
               kFixedBlocks, closed_end, nullptr);
    const WorkCounters r_fixed = CountersOf(replay.engine().Snapshot());
    size_t diffs = 0;
    auto compare = [&diffs](const WorkCounters& a, const WorkCounters& b,
                            const char* where) {
      for (size_t i = 0; i < a.values.size(); ++i) {
        if (a.values[i] != b.values[i]) {
          ++diffs;
          std::fprintf(stderr,
                       "perfbench: NONDETERMINISM %s %s: %llu vs %llu\n",
                       where, a.names[i].c_str(),
                       static_cast<unsigned long long>(a.values[i]),
                       static_cast<unsigned long long>(b.values[i]));
        }
      }
    };
    const SchedulerReplay again = ReplayScheduler(*cfg, feed, fill, fixed_end);
    compare(sched.counters, again.counters, "scheduler replay");
    compare(at_setup, r_setup, "after set-up");
    compare(at_fixed, r_fixed, "after fixed segment");
    if (replay.migrations() != fixed_migrations ||
        replay.rebuilds() != fixed_rebuilds ||
        replay.snapshot_bytes() != fixed_snapshots) {
      ++diffs;
      std::fprintf(stderr, "perfbench: NONDETERMINISM in migrations, "
                           "rebuilds or snapshot sizes\n");
    }
    attempted += 1;
    if (diffs > 0) failed += 1;
    std::printf("determinism check: %zu engine counters and %zu snapshot "
                "sizes repeated by an independent engine, %zu plan counters "
                "by a second scheduler replay: %s\n",
                at_fixed.values.size(), fixed_snapshots.size(),
                sched.counters.values.size(),
                diffs == 0 ? "identical" : "DIFFERENT");
  } else {
    std::printf("determinism check: skipped (sharded scheduling is not "
                "deterministic)\n");
  }

  const std::vector<double>& reg = calls.Get("Engine::RegisterQuery ms");
  report.Set("api.register_ms_p50", Median(reg));
  report.Set("api.churn_tail_ms", churn_tail.value);
  report.Set("api.unregister_ms_p50",
             Median(calls.Get("Engine::UnregisterQuery ms")));
  report.Set("api.finish_ms", calls.Get("Engine::Finish ms").front());
  {
    double bytes = 0;
    double tuples = 0;
    for (size_t i = 0; i < session->snapshot_bytes().size(); ++i) {
      bytes += static_cast<double>(session->snapshot_bytes()[i]);
      tuples += session->snapshot_state_tuples()[i];
    }
    report.Set("api.snapshot_bytes_per_state_tuple",
               tuples > 0 ? bytes / tuples : 0.0);
  }
  std::vector<double>& push_us = *calls.Mutable("Engine::Push us");
  push_us = std::move(trace.push_ns);
  for (double& v : push_us) v *= 1e-3;  // ns -> us
  report.Set("api.push_us_p50", Percentile(push_us, 50));
  report.Set("api.push_us_p99", Percentile(push_us, 99));

  double peak = 0;
  double avg = 0;
  for (const double v : state_samples) {
    peak = std::max(peak, v);
    avg += v;
  }
  report.Set("ops.state_tuples_peak", peak);
  report.Set("ops.state_tuples_avg",
             avg / static_cast<double>(state_samples.size()));

  const RunStats& end_stats = before_finish;
  const double all_n = static_cast<double>(end_stats.input_tuples);
  report.Set("rt.ring_events_per_tuple",
             static_cast<double>(end_stats.parallel_edge_events) / all_n);
  report.Set("rt.ring_hwm",
             static_cast<double>(end_stats.parallel_edge_high_water_mark));
  report.Set("rt.steals_per_ktuple",
             static_cast<double>(end_stats.shard_steals) * 1e3 / all_n);
  report.Set("rt.spills_per_ktuple",
             static_cast<double>(end_stats.shard_spilled_runs) * 1e3 / all_n);

  report.Set("common.allocs_per_tuple",
             static_cast<double>(trace.allocs.allocs) /
                 static_cast<double>(trace.arrivals));
  report.Set("common.alloc_bytes_per_tuple",
             static_cast<double>(trace.allocs.bytes) /
                 static_cast<double>(trace.arrivals));

  report.Set("harness.gen_lag_p99_us", Percentile(open.lag_ns, 99) * 1e-3);
  report.Set("api.latency_p99_phase_us",
             Percentile(open.latency_ns(), 99) * 1e-3);
  report.Set("harness.callback_ns", MeasureCallbackNs());
  // Engine cost per arrival over the fixed segment (untraced blocks, each
  // ending in Drain) minus the bare scheduler's cost on the same arrivals.
  report.Set("api.overhead_us_per_tuple",
             fixed.ns * 1e-3 / static_cast<double>(fixed.arrivals) -
                 sched.us_per_tuple);

  MeasureJoinState(*cfg, feed, fill, fixed_end, &calls, &report);
  MeasureSpsc(feed, &calls, &report);
  MeasureBuilders(*cfg, &calls, &report);

  calls.Print();
  std::printf("trace overhead: traced ingest %.6g tuples/s vs untraced "
              "%.6g tuples/s (%.2f%%)\n",
              traced_tps, untraced_tps,
              100.0 * (1.0 - traced_tps / untraced_tps));
  std::printf("per-layer metrics:\n");
  // Results matched the reference (VerifyAgainstReference exits
  // otherwise); a nondeterministic counter shows as a failed operation.
  report.Print(kPerLayer, true, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.list_metrics) {
    perfbench::ListMetrics();
    return 0;
  }
  return perfbench::Run(args);
}
