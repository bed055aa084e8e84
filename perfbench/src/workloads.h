// The benchmark's workloads. perfbench/README.md explains why each exists
// and which layers it is meant to move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/execution_mode.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  stateslice::ExecutionMode mode = stateslice::ExecutionMode::kDeterministic;
  int shards = 0;  // kSharded only

  // Feed: two Poisson streams, uniform keys.
  double rate_per_stream = 0;  // tuples per virtual second, each stream
  int64_t key_domain = 0;

  // Base queries, registered at set-up (window lengths in seconds).
  std::vector<double> windows_s;

  // Open loop: offered arrivals per wall second.
  double open_rate = 0;

  // The churn query (toggle_window_s). With churn_every_vs > 0 it is
  // registered at set-up and, in the closed loop, removed or registered
  // again every churn_every_vs virtual seconds; op 0 and every
  // kCkptEveryOps-th op after it also checkpoint the engine and restore
  // the snapshot into a fresh engine that takes over. The maintenance
  // phase of every workload registers and removes it on an engine being
  // retired.
  double toggle_window_s = 0;
  double churn_every_vs = 0;
};

// Churn ops per checkpoint takeover.
inline constexpr int kCkptEveryOps = 4;
// Closed-loop timing block, in virtual seconds of arrivals (ingest_tps is
// the median of the per-block rates): one churn cycle, kCkptEveryOps ops
// of 3 virtual seconds, so every block holds the same ops.
inline constexpr double kBlockVs = 12;

inline std::vector<WorkloadConfig> Workloads() {
  WorkloadConfig chain_sharded;
  chain_sharded.name = "chain_sharded";
  chain_sharded.mode = stateslice::ExecutionMode::kSharded;
  chain_sharded.shards = 2;
  chain_sharded.rate_per_stream = 1000;
  chain_sharded.key_domain = 4096;
  for (int i = 1; i <= 12; ++i) {
    chain_sharded.windows_s.push_back(2.5 * i);  // Table 4, uniform
  }
  chain_sharded.open_rate = 10000;
  chain_sharded.toggle_window_s = 8.75;

  WorkloadConfig churn_ckpt;
  churn_ckpt.name = "churn_ckpt";
  churn_ckpt.rate_per_stream = 5000;
  churn_ckpt.key_domain = int64_t{1} << 20;
  churn_ckpt.windows_s = {2, 5, 10, 15, 20, 30};
  churn_ckpt.open_rate = 25000;
  churn_ckpt.toggle_window_s = 7.5;
  churn_ckpt.churn_every_vs = kBlockVs / kCkptEveryOps;

  return {chain_sharded, churn_ckpt};
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
