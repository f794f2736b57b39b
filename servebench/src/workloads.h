// The benchmark's workloads and the helpers they share.
//
//   replay-grid   RunEventReplay, 1 shard, no budgets, no durability
//   durable-grid  the same trace with budgets, a journal and checkpoints,
//                 plus a timed crash recovery
//   online-city   an open loop over simulated Chengdu days into a
//                 4-shard engine with budgets, from concurrent callers
//
// Each run reports every end-to-end metric (untraced runs only) or every
// per-layer metric (traced runs); a layer a workload does not exercise
// reports 0. See servebench/NOTES.md for definitions.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tbf.h"
#include "report.h"
#include "serve/replay.h"
#include "serve/sharded_server.h"
#include "tracer.h"
#include "workload/instance.h"

namespace servebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // work files, span dumps and result files
};

int RunReplayGrid(const Args& args, RunResult* result);
int RunDurableGrid(const Args& args, RunResult* result);
int RunOnlineCity(const Args& args, RunResult* result);

// ------------------------------------------------------------- helpers

/// The published tree of every workload: a 32x32 grid of predefined points
/// over the 200x200 square (depth 8, arity 22), epsilon 0.6, walk sampler.
tbf::TbfFramework BuildGridFramework();

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Derives an independent 64-bit value from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Field-by-field equality of two engine states; on a difference, names it
/// in `*why`.
bool SameServerState(const tbf::ShardedServerState& a,
                     const tbf::ShardedServerState& b, std::string* why);

/// Per-task outcome equality (status code, worker, tree distance bits).
bool SameOutcomes(const std::vector<tbf::TaskOutcome>& a,
                  const std::vector<tbf::TaskOutcome>& b, std::string* why);

/// Seconds for a fresh engine (Create with `options`, whose metrics field
/// is replaced by a private registry) to take over `state` through
/// RestoreState: the in-memory failover of a non-durable deployment. With
/// `verify`, also checks that the fresh engine exports `state` back.
double TimeStateTransfer(std::shared_ptr<const tbf::CompleteHst> tree,
                         tbf::ShardedServerOptions options,
                         const tbf::ShardedServerState& state, bool verify,
                         RunResult* result);

/// max / mean of `counts` (0 when all are 0): shard imbalance.
double MaxOverMean(const std::vector<uint64_t>& counts);

/// The end-to-end sheet: every metric, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double events_per_s = 0.0;
  double task_p50_us = 0.0;
  double recover_s = 0.0;
  double assigned_ratio = 0.0;
  double mean_distance = 0.0;
  double peak_rss_mb = 0.0;

  void AddTo(RunResult* result) const;
};

/// The per-layer sheet: every name in BENCHMARK.json with its unit; values
/// not set by a workload are reported as 0.
class LayerSheet {
 public:
  void Set(const std::string& name, double value);
  /// The value set under `name`, or 0.
  double Get(const std::string& name) const;
  /// Copies every value `other` has set.
  void Merge(const LayerSheet& other);
  void AddTo(RunResult* result) const;

  /// Per-operation means and shares common to every traced workload.
  void SetFromSummary(const TraceSummary& summary);

 private:
  friend LayerSheet MedianSheet(const std::vector<LayerSheet>& passes);
  std::map<std::string, double> values_;
};

/// Median over passes of each sheet entry.
LayerSheet MedianSheet(const std::vector<LayerSheet>& passes);

/// Prints one `info` line (stdout, before the result line).
void Info(const std::string& key, const std::string& value);
void Info(const std::string& key, double value);

}  // namespace servebench
