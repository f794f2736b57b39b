// replay-grid and durable-grid: the batch replay of a Normal synthetic
// stream through RunEventReplay, untraced for the end-to-end numbers and
// through the traced driver (replay_driver.h) for the output check and the
// layer numbers. durable-grid adds budgets, a journal and checkpoints, and
// a crash-recovery phase timed on its own.

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "geo/point.h"
#include "replay_driver.h"
#include "serve/recovery.h"
#include "serve/replay.h"
#include "serve/wal.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace servebench {

using namespace tbf;
namespace fs = std::filesystem;

namespace {

constexpr int kGridWorkers = 100000;  // tasks = workers / 2
constexpr double kEpochBudget = 1.2;  // two reports per user and epoch
constexpr double kLifetimeBudget = 3.0;
constexpr int kCheckpointEveryEpochs = 4;  // 20 windows -> 5 checkpoints
constexpr double kKillFraction = 0.7;      // of the clean run's journal

EventTrace MakeGridTrace(uint64_t seed) {
  SyntheticEventConfig config;
  config.base.num_workers = kGridWorkers;
  config.base.num_tasks = kGridWorkers / 2;
  config.base.mu = 100.0;
  config.base.sigma = 20.0;
  config.base.space_side = 200.0;
  config.base.seed = DeriveSeed(seed, 0);
  config.horizon_seconds = 600.0;
  config.departure_probability = 0.05;
  return GenerateEventTrace(config).MoveValueUnsafe();
}

ReplayOptions GridOptions(uint64_t seed, const std::string& durable_dir) {
  ReplayOptions options;
  options.epoch_seconds = 30.0;
  options.num_shards = 1;
  options.threads = 1;
  options.parallel_dispatch = false;
  options.server_seed = DeriveSeed(seed, 1);
  options.obfuscation_seed = DeriveSeed(seed, 2);
  options.sampler = SamplerKind::kWalk;
  if (!durable_dir.empty()) {
    options.epoch_budget = kEpochBudget;
    options.lifetime_budget = kLifetimeBudget;
    options.durable_dir = durable_dir;
    options.checkpoint_every_epochs = kCheckpointEveryEpochs;
    options.keep_checkpoints = 2;
    options.wal_fsync = WalFsyncPolicy::GroupCommit();
  }
  return options;
}

ShardedServerOptions EngineOptions(const ReplayOptions& options,
                                   obs::MetricRegistry* metrics) {
  ShardedServerOptions engine;
  engine.num_shards = options.num_shards;
  engine.lifetime_budget = options.lifetime_budget;
  engine.epoch_budget = options.epoch_budget;
  engine.tie_break = options.tie_break;
  engine.seed = options.server_seed;
  engine.metrics = metrics;
  return engine;
}

// Mean true Euclidean distance from each assigned task to its worker's
// true location, and the share of tasks assigned.
void Quality(const EventTrace& trace, const std::vector<TaskOutcome>& outcomes,
             EndToEnd* e2e) {
  std::unordered_map<std::string, Point> workers;
  std::unordered_map<std::string, Point> tasks;
  for (const TimedEvent& event : trace.events) {
    if (event.kind == EventKind::kWorkerArrival) workers[event.id] = event.location;
    if (event.kind == EventKind::kTaskArrival) tasks[event.id] = event.location;
  }
  double sum = 0.0;
  size_t assigned = 0;
  for (const TaskOutcome& outcome : outcomes) {
    if (!outcome.worker) continue;
    ++assigned;
    sum += EuclideanDistance(tasks.at(outcome.task_id), workers.at(*outcome.worker));
  }
  e2e->assigned_ratio =
      outcomes.empty() ? 0.0 : static_cast<double>(assigned) / outcomes.size();
  e2e->mean_distance = assigned > 0 ? sum / static_cast<double>(assigned) : 0.0;
}

// Operations of a replay report that failed for a reason other than a
// budget refusal.
uint64_t ReplayErrors(const ReplayReport& report) {
  const uint64_t budget_denials =
      report.denied_epoch_budget + report.denied_lifetime_budget;
  const uint64_t other_denials =
      report.denied > budget_denials ? report.denied - budget_denials : 0;
  return report.shed + report.quarantined + other_denials;
}

bool SameTotals(const EpochBudgetLedger::Totals& a,
                const EpochBudgetLedger::Totals& b) {
  return a.epsilon_spent == b.epsilon_spent && a.charges == b.charges &&
         a.denied_epoch == b.denied_epoch &&
         a.denied_lifetime == b.denied_lifetime;
}

// durable-grid's crash fixture: the journal length of a clean run, and a
// directory holding the same run interrupted at a fixed journal record.
struct CrashFixture {
  ReplayOptions options;  // durable_dir holds the interrupted run
  uint64_t kill_lsn = 0;
  uint64_t journal_records = 0;
};

bool PrepareCrash(const TbfFramework& framework, const EventTrace& trace,
                  const ReplayOptions& clean, RunResult* result,
                  CrashFixture* fixture) {
  auto scan = ScanWalDir(clean.durable_dir, false);
  if (!scan.ok()) {
    result->Fail("journal scan: " + scan.status().ToString());
    return false;
  }
  fixture->journal_records = scan->next_lsn;
  fixture->kill_lsn = static_cast<uint64_t>(
      static_cast<double>(scan->next_lsn) * kKillFraction);
  fixture->options = clean;
  fixture->options.durable_dir = clean.durable_dir + "-crash";
  // A kill on a segment header's LSN never fires (headers are not
  // appended); the next record does.
  for (uint64_t lsn = fixture->kill_lsn; lsn < fixture->kill_lsn + 4; ++lsn) {
    fs::remove_all(fixture->options.durable_dir);
    fault::FaultPlan plan;
    fault::FaultSpec kill;
    kill.site = "wal.append";
    kill.kind = fault::FaultKind::kFail;
    kill.code = StatusCode::kAborted;
    kill.after = lsn;
    kill.count = 1;
    plan.faults.push_back(kill);
    fault::ScopedFaultPlan armed(plan);
    auto died = RunEventReplay(framework, trace, fixture->options);
    if (!died.ok() && died.status().code() == StatusCode::kAborted) return true;
  }
  result->Fail("the durable run could not be interrupted at lsn " +
               std::to_string(fixture->kill_lsn));
  return false;
}

struct RecoveryTiming {
  double total_s = 0.0;
  double scan_s = 0.0;     // RecoverReplayDir
  double restore_s = 0.0;  // Create + RestoreState
  double suffix_s = 0.0;   // ReplayWalSuffix
};

// One timed crash recovery, up to the point where the engine can serve
// again: scan the directory, restore the newest checkpoint into a fresh
// engine, re-apply the journal suffix.
bool TimeDiskRecovery(const TbfFramework& framework, const CrashFixture& crash,
                      RunResult* result, RecoveryTiming* timing) {
  obs::MetricRegistry metrics;
  const int64_t t0 = NowNs();
  auto recovered =
      RecoverReplayDir(crash.options.durable_dir, RecoveryPolicy{}, &metrics);
  const int64_t t1 = NowNs();
  if (!recovered.ok()) {
    result->Fail("recover scan: " + recovered.status().ToString());
    return false;
  }
  auto server = ShardedTbfServer::Create(framework.tree_ptr(),
                                         EngineOptions(crash.options, &metrics));
  Status status = server.status();
  if (server.ok() && recovered->checkpoint) {
    status = (*server)->RestoreState(recovered->checkpoint->server);
  }
  const int64_t t2 = NowNs();
  if (!status.ok()) {
    result->Fail("recover restore: " + status.ToString());
    return false;
  }
  auto applied = ReplayWalSuffix(server->get(), recovered->wal.records,
                                 recovered->suffix_begin, {}, &metrics);
  const int64_t t3 = NowNs();
  if (!applied.ok()) {
    result->Fail("recover journal suffix: " + applied.status().ToString());
    return false;
  }
  timing->total_s = static_cast<double>(t3 - t0) * 1e-9;
  timing->scan_s = static_cast<double>(t1 - t0) * 1e-9;
  timing->restore_s = static_cast<double>(t2 - t1) * 1e-9;
  timing->suffix_s = static_cast<double>(t3 - t2) * 1e-9;
  return true;
}

// Per-layer numbers of one traced pass.
LayerSheet TracedSheet(const TracedReplay& traced, const TraceSummary& summary,
                       double untraced_wall_s) {
  LayerSheet sheet;
  sheet.SetFromSummary(summary);
  const double events = static_cast<double>(traced.events);
  const double busy_ns = traced.wall_seconds * 1e9 - summary.shadow_ns;
  sheet.Set("serve.replay_self.ns", summary.of(Op::kEvent).self_ns / events);
  sheet.Set("trace.coverage", summary.covered_ns / busy_ns);
  sheet.Set("trace.overhead_s", busy_ns * 1e-9 - untraced_wall_s);
  const obs::MetricsSnapshot snapshot = traced.metrics->Snapshot();
  double engine_ns = 0.0;
  for (Op op : {Op::kRegister, Op::kSubmit, Op::kUnregister, Op::kBeginEpoch,
                Op::kExportState}) {
    engine_ns += summary.of(op).total_ns;
  }
  const obs::HistogramSample* lock_wait =
      snapshot.FindHistogram("tbf_serve_lock_wait_ns");
  sheet.Set("serve.lock_wait.share",
            lock_wait != nullptr && engine_ns > 0.0
                ? static_cast<double>(lock_wait->sum) / engine_ns
                : 0.0);
  sheet.Set("serve.fanout_ratio",
            snapshot.CounterValue("tbf_serve_crossshard_fanout_total") /
                static_cast<double>(traced.tasks));
  sheet.Set("serve.home_shard_imbalance", MaxOverMean(traced.home_shard_tasks));
  const EpochBudgetLedger::Totals& shadow = traced.shadow_totals;
  const double attempts = static_cast<double>(
      shadow.charges + shadow.denied_epoch + shadow.denied_lifetime);
  sheet.Set("privacy.denied_ratio",
            attempts > 0.0 ? (shadow.denied_epoch + shadow.denied_lifetime) / attempts
                           : 0.0);
  sheet.Set("serve.wal.bytes_per_event",
            snapshot.CounterValue("tbf_wal_bytes_total") / events);
  sheet.Set("serve.wal.fsyncs", snapshot.CounterValue("tbf_wal_fsyncs_total"));
  double checkpoint_bytes = 0.0;
  for (uint64_t b : traced.checkpoint_bytes) checkpoint_bytes += static_cast<double>(b);
  sheet.Set("serve.checkpoint.bytes",
            traced.checkpoint_bytes.empty()
                ? 0.0
                : checkpoint_bytes / static_cast<double>(traced.checkpoint_bytes.size()));
  return sheet;
}

int RunGrid(const Args& args, bool durable, RunResult* result) {
  const EventTrace trace = MakeGridTrace(args.seed);
  const size_t events = trace.events.size();
  Info("events", static_cast<double>(events));
  const std::string work_dir = args.out_dir + "/work";
  const ReplayOptions options =
      GridOptions(args.seed, durable ? work_dir + "/untraced" : "");
  const TbfFramework framework = BuildGridFramework();

  // Reference run (untimed): the outcomes every other run must reproduce,
  // the final state, and for durable-grid the crash fixture.
  ReplayOptions reference_options = options;
  if (durable) reference_options.durable_dir = work_dir + "/clean";
  reference_options.export_final_state = true;
  fs::remove_all(work_dir);
  auto reference_run = RunEventReplay(framework, trace, reference_options);
  result->attempted += events;
  if (!reference_run.ok()) {
    std::fprintf(stderr, "servebench: RunEventReplay: %s\n",
                 reference_run.status().ToString().c_str());
    return 1;
  }
  const ReplayReport reference = std::move(reference_run).MoveValueUnsafe();
  result->failed += ReplayErrors(reference);
  CrashFixture crash;
  if (durable && !PrepareCrash(framework, trace, reference_options, result, &crash)) {
    return 0;
  }

  // Timed loop: set-up, replay and recovery interleaved, so that every
  // median spans the whole measuring time.
  EndToEnd e2e;
  LayerSheet layers;
  const int64_t loop_start = NowNs();
  const double untraced_budget = args.trace ? 0.3 * args.seconds : args.seconds;
  const size_t untraced_min = args.trace ? 2 : 3;
  std::vector<double> setup_s, walls, rates, p50s, p90s, p99s;
  std::vector<double> recover_s, scan_s, restore_s, suffix_s;
  while (walls.size() < untraced_min || SecondsSince(loop_start) < untraced_budget) {
    {
      obs::MetricRegistry metrics;
      const int64_t t0 = NowNs();
      const TbfFramework built = BuildGridFramework();
      auto engine = ShardedTbfServer::Create(built.tree_ptr(),
                                             EngineOptions(options, &metrics));
      setup_s.push_back(SecondsSince(t0));
      if (!engine.ok()) result->Fail("engine creation: " + engine.status().ToString());
    }
    if (durable) fs::remove_all(options.durable_dir);
    const int64_t t0 = NowNs();
    auto report = RunEventReplay(framework, trace, options);
    const double wall = SecondsSince(t0);
    result->attempted += events;
    if (!report.ok()) {
      result->failed += events;
      result->Fail("RunEventReplay: " + report.status().ToString());
      break;
    }
    result->failed += ReplayErrors(*report);
    walls.push_back(wall);
    rates.push_back(static_cast<double>(events) / wall);
    std::string why;
    if (!SameOutcomes(report->task_outcomes, reference.task_outcomes, &why)) {
      result->Fail("repeated replay differs: " + why);
    }
    if (durable) {
      for (int rep = 0; rep < 2; ++rep) {
        RecoveryTiming timing;
        if (TimeDiskRecovery(framework, crash, result, &timing)) {
          recover_s.push_back(timing.total_s);
          scan_s.push_back(timing.scan_s);
          restore_s.push_back(timing.restore_s);
          suffix_s.push_back(timing.suffix_s);
        }
      }
    } else {
      // In-memory failover: a fresh engine takes over the final state.
      recover_s.push_back(TimeStateTransfer(framework.tree_ptr(),
                                            EngineOptions(options, nullptr),
                                            *reference.final_state,
                                            recover_s.empty(), result));
    }
    // Task latency, every other iteration: the same sequence through the
    // benchmark's driver with spans off, timing each SubmitTask call (the
    // journal, written after dispatch, is left out).
    if (walls.size() % 2 == 0) continue;
    ReplayOptions latency_options = options;
    latency_options.durable_dir.clear();
    Tracer off(false);
    auto timed = RunTracedReplay(framework, trace, latency_options, &off);
    result->attempted += events;
    if (!timed.ok()) {
      result->failed += events;
      result->Fail("timed driver: " + timed.status().ToString());
      break;
    }
    result->failed += timed->errors;
    if (!SameOutcomes(timed->outcomes, reference.task_outcomes, &why)) {
      result->Fail("driver outcomes != RunEventReplay outcomes: " + why);
    }
    const std::vector<double>& submit_ns = timed->submit_ns;
    p50s.push_back(Quantile(submit_ns, 0.5) / 1e3);
    p90s.push_back(Quantile(submit_ns, 0.9) / 1e3);
    p99s.push_back(
        Quantile(submit_ns, SupportedQuantile(submit_ns.size(), 0.99)) / 1e3);
  }
  e2e.setup_s = Median(setup_s);
  e2e.events_per_s = Median(rates);
  e2e.task_p50_us = Median(p50s);
  e2e.recover_s = Median(recover_s);
  e2e.peak_rss_mb = PeakRssMb();
  Quality(trace, reference.task_outcomes, &e2e);
  layers.Set("tail.task_p90_us", Median(p90s));
  layers.Set("tail.task_p99_us", Median(p99s));
  layers.Set("serve.recover_scan.s", Median(scan_s));
  layers.Set("serve.restore.s", durable ? Median(restore_s) : e2e.recover_s);
  layers.Set("serve.wal_suffix.s", Median(suffix_s));
  const double untraced_wall = Median(walls);
  Info("untraced.runs", static_cast<double>(walls.size()));
  Info("untraced.wall_s.median", untraced_wall);
  Info("tasks", static_cast<double>(reference.task_arrivals));
  Info("task_latency.source", "SubmitTask call time, sequential driver");
  Info("task_latency.samples_per_run", static_cast<double>(reference.task_arrivals));
  Info("task_latency.runs", static_cast<double>(p50s.size()));
  Info("task_latency.p90_us", Median(p90s));
  Info("task_latency.p99_quantile",
       SupportedQuantile(reference.task_arrivals, 0.99));
  Info("task_latency.p99_us", Median(p99s));
  Info("assigned", static_cast<double>(reference.assigned));
  Info("budget_denials", static_cast<double>(reference.denied_epoch_budget +
                                             reference.denied_lifetime_budget));
  if (durable) {
    Info("durable.kill_lsn", static_cast<double>(crash.kill_lsn));
    Info("durable.journal_records", static_cast<double>(crash.journal_records));
  }

  // Traced driver: the output check on every invocation, the layer numbers
  // when tracing.
  ReplayOptions traced_options = options;
  if (durable) traced_options.durable_dir = work_dir + "/traced";
  std::vector<LayerSheet> sheets;
  std::vector<Span> last_spans;
  const size_t traced_min = args.trace ? 2 : 1;
  for (size_t pass = 0;
       pass < traced_min || (args.trace && SecondsSince(loop_start) < args.seconds);
       ++pass) {
    if (durable) fs::remove_all(traced_options.durable_dir);
    Tracer tracer(args.trace);
    tracer.Reserve(events * 8);
    auto traced = RunTracedReplay(framework, trace, traced_options, &tracer);
    result->attempted += events;
    if (!traced.ok()) {
      result->failed += events;
      result->Fail("traced replay: " + traced.status().ToString());
      break;
    }
    result->failed += traced->errors;
    std::string why;
    if (!SameOutcomes(traced->outcomes, reference.task_outcomes, &why)) {
      result->Fail("traced outcomes != RunEventReplay outcomes: " + why);
    }
    EpochBudgetLedger::Totals untraced_totals;
    untraced_totals.epsilon_spent = reference.epsilon_spent;
    untraced_totals.charges = traced->ledger_totals.charges;
    untraced_totals.denied_epoch = reference.denied_epoch_budget;
    untraced_totals.denied_lifetime = reference.denied_lifetime_budget;
    if (!SameTotals(traced->ledger_totals, untraced_totals)) {
      result->Fail("traced ledger totals != RunEventReplay totals");
    }
    if (!SameTotals(traced->shadow_totals, traced->ledger_totals) ||
        traced->shadow_verdict_mismatches != 0) {
      result->Fail("shadow ledger disagrees with the engine ledger");
    }
    if (traced->errors != 0) result->Fail("traced replay saw engine errors");
    if (args.trace) {
      TraceSummary summary;
      Summarize(tracer.spans(), &summary);
      sheets.push_back(TracedSheet(*traced, summary, untraced_wall));
      last_spans = tracer.spans();
    }
  }

  // durable-grid: the interrupted run, resumed through RunEventReplay's own
  // recovery, must end exactly where the uninterrupted run ended.
  if (durable) {
    ReplayOptions resume = crash.options;
    resume.recover = true;
    resume.export_final_state = true;
    auto resumed = RunEventReplay(framework, trace, resume);
    std::string why;
    if (!resumed.ok()) {
      result->Fail("resumed durable run: " + resumed.status().ToString());
    } else if (!SameServerState(*resumed->final_state, *reference.final_state,
                                &why)) {
      result->Fail("recovered state != uninterrupted state: " + why);
    } else if (!SameOutcomes(resumed->task_outcomes, reference.task_outcomes,
                             &why)) {
      result->Fail("recovered outcomes != uninterrupted outcomes: " + why);
    }
  }
  fs::remove_all(work_dir);

  if (!args.trace) {
    e2e.AddTo(result);
    return 0;
  }
  LayerSheet median = MedianSheet(sheets);
  median.Merge(layers);
  median.AddTo(result);
  const std::string spans_path =
      args.out_dir + "/spans-" + (durable ? "durable-grid" : "replay-grid") +
      ".bin";
  if (!WriteSpans(spans_path, {&last_spans})) {
    result->Fail("could not write " + spans_path);
  }
  Info("spans", spans_path);
  Info("traced.passes", static_cast<double>(sheets.size()));
  return 0;
}

}  // namespace

int RunReplayGrid(const Args& args, RunResult* result) {
  return RunGrid(args, false, result);
}

int RunDurableGrid(const Args& args, RunResult* result) {
  return RunGrid(args, true, result);
}

}  // namespace servebench
