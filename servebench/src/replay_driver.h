// Traced sequential replay: the benchmark's own copy of RunEventReplay's
// sequential, fault-free path, written against the library's public entry
// points so that every call into a layer can carry a span.
//
// Given the same framework, trace and ReplayOptions it must reproduce the
// library loop's outcomes bit for bit (per-task status, worker and tree
// distance; ledger totals); the workloads check that on every invocation.
// Supported: packed codes, sequential dispatch, optional budgets, optional
// durable_dir (journal + ordinal checkpoints). Not supported: parallel
// dispatch, faults, quarantine, republish schedules, legacy checkpoints.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/tbf.h"
#include "obs/metrics.h"
#include "privacy/budget.h"
#include "serve/replay.h"
#include "tracer.h"
#include "workload/instance.h"

namespace servebench {

struct TracedReplay {
  std::unique_ptr<tbf::obs::MetricRegistry> metrics;  // the engine's registry

  std::vector<tbf::TaskOutcome> outcomes;  // task arrival order
  tbf::EpochBudgetLedger::Totals ledger_totals;  // engine ledger
  tbf::EpochBudgetLedger::Totals shadow_totals;  // shadow ledger
  uint64_t shadow_verdict_mismatches = 0;  // shadow vs engine admission

  size_t events = 0;
  size_t tasks = 0;
  size_t assigned = 0;
  size_t unassigned = 0;
  size_t denied = 0;    // budget refusals (an outcome, not an error)
  size_t errors = 0;    // any other non-OK engine status
  size_t missed_departures = 0;

  std::vector<double> submit_ns;  // SubmitTask call time per task, in order
  std::vector<uint64_t> home_shard_tasks;  // tasks per home shard
  std::vector<uint64_t> checkpoint_bytes;  // one entry per checkpoint
  double wall_seconds = 0.0;               // the whole pass, shadows included
};

/// Replays `trace` through a fresh engine, tracing into `tracer` (which may
/// be disabled). Fails on any configuration the driver does not support.
tbf::Result<TracedReplay> RunTracedReplay(const tbf::TbfFramework& framework,
                                          const tbf::EventTrace& trace,
                                          const tbf::ReplayOptions& options,
                                          Tracer* tracer);

}  // namespace servebench
