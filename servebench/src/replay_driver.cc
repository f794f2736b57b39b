#include "replay_driver.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "hst/hst_index.h"
#include "serve/checkpoint.h"
#include "serve/recovery.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"

namespace servebench {

using namespace tbf;

namespace {

// Shadow availability index: the engine's per-shard index is private, so
// the index layer is timed on a shadow fed the run's exact sequence of
// registrations, queries and consumptions.
class ShadowIndex {
 public:
  ShadowIndex(int depth, int arity, Tracer* tracer)
      : index_(depth, arity), tracer_(tracer) {}

  void Register(const std::string& id, LeafCode code, uint64_t event) {
    auto it = items_.find(id);
    if (it != items_.end()) {
      Scope span(tracer_, Op::kIndexRemove, event);
      index_.Remove(it->second.first, it->second.second);
      it->second.first = code;
    } else {
      int item = static_cast<int>(next_item_);
      if (!free_.empty()) {
        item = free_.back();
        free_.pop_back();
      } else {
        ++next_item_;
      }
      it = items_.emplace(id, std::make_pair(code, item)).first;
    }
    Scope span(tracer_, Op::kIndexInsert, event);
    index_.Insert(code, it->second.second);
  }

  void Query(LeafCode code, uint64_t event) {
    Scope span(tracer_, Op::kIndexNearest, event);
    index_.Nearest(code);
  }

  void Consume(const std::string& id, uint64_t event) {
    auto it = items_.find(id);
    if (it == items_.end()) return;
    {
      Scope span(tracer_, Op::kIndexRemove, event);
      index_.Remove(it->second.first, it->second.second);
    }
    free_.push_back(it->second.second);
    items_.erase(it);
  }

 private:
  HstAvailabilityIndex index_;
  Tracer* tracer_;
  std::unordered_map<std::string, std::pair<LeafCode, int>> items_;
  std::vector<int> free_;
  size_t next_item_ = 0;
};

}  // namespace

Result<TracedReplay> RunTracedReplay(const TbfFramework& framework,
                                     const EventTrace& trace,
                                     const ReplayOptions& options,
                                     Tracer* tracer) {
  const LeafCodec* codec = framework.codec();
  if (codec == nullptr) {
    return Status::InvalidArgument("traced replay needs packed leaf codes");
  }
  if (options.parallel_dispatch && options.num_shards > 1) {
    return Status::InvalidArgument("traced replay is sequential only");
  }
  if (!options.checkpoint_path.empty() || options.recover ||
      !options.republishes.empty() ||
      options.poison_policy != PoisonPolicy::kFail) {
    return Status::InvalidArgument("traced replay: unsupported option");
  }
  const int64_t pass_start = NowNs();
  const CompleteHst& tree = framework.tree();
  const HstMechanism& mechanism = framework.mechanism();
  const size_t n = trace.events.size();
  const bool durable = !options.durable_dir.empty();
  const bool budgets_on =
      options.lifetime_budget.has_value() || options.epoch_budget.has_value();
  const std::optional<double> declared_epsilon =
      budgets_on ? std::optional<double>(framework.epsilon()) : std::nullopt;

  TracedReplay out;
  out.metrics = std::make_unique<obs::MetricRegistry>();
  ShardedServerOptions server_options;
  server_options.num_shards = options.num_shards;
  server_options.lifetime_budget = options.lifetime_budget;
  server_options.epoch_budget = options.epoch_budget;
  server_options.tie_break = options.tie_break;
  server_options.seed = options.server_seed;
  server_options.metrics = out.metrics.get();
  // Declared after `out`: the engine's metric handles point into
  // out.metrics, which therefore outlives it.
  TBF_ASSIGN_OR_RETURN(std::unique_ptr<ShardedTbfServer> engine,
                       ShardedTbfServer::Create(framework.tree_ptr(),
                                                server_options));
  ShardedTbfServer& server = *engine;
  out.home_shard_tasks.assign(static_cast<size_t>(options.num_shards), 0);

  ShadowIndex shadow_index(tree.depth(), tree.arity(), tracer);
  obs::MetricRegistry shadow_metrics;
  std::optional<EpochBudgetLedger> shadow_ledger;
  if (budgets_on) {
    shadow_ledger.emplace(
        options.epoch_budget.value_or(options.lifetime_budget.value_or(0.0)),
        options.lifetime_budget, &shadow_metrics);
  }

  for (const TimedEvent& event : trace.events) {
    if (event.kind == EventKind::kTaskArrival) ++out.tasks;
  }
  out.events = n;
  out.outcomes.resize(out.tasks);
  out.submit_ns.reserve(out.tasks);
  std::vector<int64_t> event_epoch(n, 0);
  for (size_t i = 0; i < n; ++i) {
    event_epoch[i] = static_cast<int64_t>(std::floor(
        (trace.events[i].time - trace.events[0].time) / options.epoch_seconds));
  }

  // Durable state: journal writer and retained checkpoints.
  std::unique_ptr<WalWriter> wal;
  std::vector<RetainedCheckpoint> retained;
  const uint32_t fingerprint = durable ? FingerprintEventTrace(trace) : 0;
  if (durable) {
    WalIdentity identity;
    identity.trace_fingerprint = fingerprint;
    identity.num_shards = options.num_shards;
    identity.epoch_seconds = options.epoch_seconds;
    identity.server_seed = options.server_seed;
    identity.obfuscation_seed = options.obfuscation_seed;
    TBF_ASSIGN_OR_RETURN(wal, WalWriter::Open(options.durable_dir, identity,
                                              options.wal_fsync,
                                              out.metrics.get()));
  }
  const auto append = [&](WalRecord* record, uint64_t event) -> Status {
    Scope span(tracer, Op::kWalAppend, event);
    return wal->Append(record);
  };

  const Rng stream(options.obfuscation_seed);
  const SamplerKind sampler = options.sampler.value_or(framework.sampler());
  std::vector<LeafCode> reports(n, 0);
  uint64_t arrivals_obfuscated = 0;
  int64_t next_task_slot = 0;
  size_t registered = 0;
  std::vector<EpochStats> per_epoch;
  uint64_t epochs_completed = 0;

  size_t begin = 0;
  while (begin < n) {
    const int64_t epoch = event_epoch[begin];
    size_t end = begin;
    while (end < n && event_epoch[end] == epoch) ++end;
    EpochStats stats;
    stats.epoch = epoch;

    if (wal != nullptr) {
      WalRecord rec;
      rec.kind = WalRecordKind::kEpochBegin;
      rec.epoch = epoch;
      rec.begin_index = static_cast<uint64_t>(begin);
      rec.arrivals_obfuscated = arrivals_obfuscated;
      rec.next_task_slot = next_task_slot;
      TBF_RETURN_NOT_OK(append(&rec, kNoEvent));
    }

    // Client side: map, fork and sample every arrival of the window, in
    // trace order, from the same per-arrival fork offsets as the library.
    for (size_t i = begin; i < end; ++i) {
      const TimedEvent& event = trace.events[i];
      if (event.kind == EventKind::kWorkerDeparture) continue;
      Scope root(tracer, Op::kEvent, i);
      LeafCode truth = 0;
      {
        Scope span(tracer, Op::kMapNearest, i);
        truth = tree.MapToNearestLeafCode(event.location);
      }
      Rng item = [&] {
        Scope span(tracer, Op::kRngFork, i);
        return stream.ForkAt(arrivals_obfuscated);
      }();
      ++arrivals_obfuscated;
      Scope span(tracer, Op::kSample, i);
      reports[i] = mechanism.ObfuscateCodeWith(truth, &item, sampler);
    }

    {
      Scope span(tracer, Op::kBeginEpoch);
      TBF_RETURN_NOT_OK(server.BeginEpoch(epoch));
    }
    if (shadow_ledger) TBF_RETURN_NOT_OK(shadow_ledger->BeginEpoch(epoch));
    const EpochBudgetLedger* ledger = server.ledger();
    const EpochBudgetLedger::Totals window_before =
        ledger != nullptr ? ledger->totals() : EpochBudgetLedger::Totals{};

    for (size_t i = begin; i < end; ++i) {
      const TimedEvent& event = trace.events[i];
      const LeafCode code = reports[i];
      Status status;
      std::optional<std::string> assigned_worker;
      {
        Scope root(tracer, Op::kEvent, i);
        const EpochBudgetLedger::Totals before =
            wal != nullptr && ledger != nullptr ? ledger->totals()
                                                : EpochBudgetLedger::Totals{};
        if (event.kind != EventKind::kWorkerDeparture) {
          Scope span(tracer, Op::kRoute, i);
          const int shard = server.router().ShardOf(code, *codec);
          if (event.kind == EventKind::kTaskArrival) {
            ++out.home_shard_tasks[static_cast<size_t>(shard)];
          }
        }
        int64_t slot = -1;
        switch (event.kind) {
          case EventKind::kWorkerArrival: {
            ++stats.worker_arrivals;
            Scope span(tracer, Op::kRegister, i);
            status = server.RegisterWorker(event.id, code, declared_epsilon);
            break;
          }
          case EventKind::kTaskArrival: {
            ++stats.task_arrivals;
            slot = next_task_slot++;
            TaskOutcome& outcome = out.outcomes[static_cast<size_t>(slot)];
            outcome.task_id = event.id;
            const int64_t submit_start = NowNs();
            Result<DispatchResult> dispatched = [&] {
              Scope span(tracer, Op::kSubmit, i);
              return server.SubmitTask(event.id, code, declared_epsilon);
            }();
            out.submit_ns.push_back(static_cast<double>(NowNs() - submit_start));
            if (dispatched.ok()) {
              outcome.worker = dispatched->worker;
              outcome.reported_tree_distance =
                  dispatched->reported_tree_distance;
              assigned_worker = outcome.worker;
              ++(outcome.worker ? out.assigned : out.unassigned);
              ++(outcome.worker ? stats.assigned : stats.unassigned);
            } else {
              status = dispatched.status();
              outcome.status = status;
            }
            break;
          }
          case EventKind::kWorkerDeparture: {
            ++stats.departures;
            Scope span(tracer, Op::kUnregister, i);
            status = server.UnregisterWorker(event.id);
            if (!status.ok()) ++out.missed_departures;
            break;
          }
        }
        if (event.kind == EventKind::kWorkerArrival && status.ok()) {
          ++registered;
        } else if (event.kind != EventKind::kWorkerDeparture && !status.ok()) {
          if (budgets_on && status.code() == StatusCode::kFailedPrecondition) {
            ++out.denied;
            ++stats.denied;
          } else {
            ++out.errors;
          }
        }
        if (wal != nullptr) {
          // Journal-after-apply, field for field as the library loop does.
          WalRecord rec;
          rec.event_index = static_cast<uint64_t>(i);
          rec.id = event.id;
          if (event.kind == EventKind::kWorkerDeparture) {
            rec.kind = WalRecordKind::kWorkerDeparture;
            rec.missed = !status.ok();
          } else {
            rec.kind = event.kind == EventKind::kWorkerArrival
                           ? WalRecordKind::kWorkerArrival
                           : WalRecordKind::kTaskArrival;
            rec.packed = true;
            rec.code = code;
            rec.has_epsilon = declared_epsilon.has_value();
            rec.declared_epsilon = declared_epsilon.value_or(0.0);
            rec.outcome.status_code = static_cast<int32_t>(status.code());
            if (!status.ok()) rec.outcome.message = status.message();
          }
          if (slot >= 0) {
            rec.task_slot = slot;
            const TaskOutcome& outcome = out.outcomes[static_cast<size_t>(slot)];
            if (status.ok()) {
              rec.outcome.tree_distance = outcome.reported_tree_distance;
              rec.outcome.has_worker = outcome.worker.has_value();
              rec.outcome.worker = outcome.worker.value_or("");
            }
          }
          if (ledger != nullptr) {
            const EpochBudgetLedger::Totals after = ledger->totals();
            rec.outcome.epsilon_charged =
                after.epsilon_spent - before.epsilon_spent;
            if (after.denied_epoch > before.denied_epoch) {
              rec.outcome.budget_denied = 1;
            } else if (after.denied_lifetime > before.denied_lifetime) {
              rec.outcome.budget_denied = 2;
            }
          }
          TBF_RETURN_NOT_OK(append(&rec, i));
        }
      }

      // Shadow layers, outside the event span: the ledger sees every
      // declared report, the index every accepted registration, query and
      // consumption.
      Scope shadow(tracer, Op::kShadow, i);
      const bool report = event.kind != EventKind::kWorkerDeparture;
      if (report && shadow_ledger) {
        Status verdict;
        {
          Scope span(tracer, Op::kCharge, i);
          verdict = shadow_ledger->Charge(event.id, *declared_epsilon);
        }
        const bool engine_denied =
            status.code() == StatusCode::kFailedPrecondition;
        if (verdict.ok() == engine_denied) ++out.shadow_verdict_mismatches;
      }
      if (event.kind == EventKind::kWorkerArrival && status.ok()) {
        shadow_index.Register(event.id, code, i);
      } else if (event.kind == EventKind::kTaskArrival && status.ok()) {
        shadow_index.Query(code, i);
        if (assigned_worker) shadow_index.Consume(*assigned_worker, i);
      } else if (event.kind == EventKind::kWorkerDeparture && status.ok()) {
        shadow_index.Consume(event.id, i);
      }
    }
    if (ledger != nullptr) {
      const EpochBudgetLedger::Totals& totals = ledger->totals();
      stats.epsilon_spent = totals.epsilon_spent - window_before.epsilon_spent;
      stats.denied_epoch_budget =
          totals.denied_epoch - window_before.denied_epoch;
      stats.denied_lifetime_budget =
          totals.denied_lifetime - window_before.denied_lifetime;
    }
    per_epoch.push_back(stats);
    begin = end;
    ++epochs_completed;

    const bool checkpoint_due =
        epochs_completed %
            static_cast<uint64_t>(options.checkpoint_every_epochs) ==
        0;
    if (wal != nullptr && checkpoint_due) {
      {
        Scope span(tracer, Op::kWalSync);
        TBF_RETURN_NOT_OK(wal->Sync());
      }
      ReplayCheckpoint ckpt;
      ckpt.trace_fingerprint = fingerprint;
      ckpt.num_shards = options.num_shards;
      ckpt.epoch_seconds = options.epoch_seconds;
      ckpt.server_seed = options.server_seed;
      ckpt.obfuscation_seed = options.obfuscation_seed;
      ckpt.next_event = static_cast<uint64_t>(end);
      ckpt.arrivals_obfuscated = arrivals_obfuscated;
      ckpt.next_task_slot = next_task_slot;
      ckpt.report.registered = registered;
      ckpt.report.assigned = out.assigned;
      ckpt.report.unassigned = out.unassigned;
      ckpt.report.denied = out.denied;
      ckpt.report.missed_departures = out.missed_departures;
      ckpt.report.processed_events = end;
      ckpt.report.checkpoints_written = out.checkpoint_bytes.size() + 1;
      ckpt.per_epoch = per_epoch;
      ckpt.task_outcomes.assign(out.outcomes.begin(),
                                out.outcomes.begin() + next_task_slot);
      {
        Scope span(tracer, Op::kExportState);
        ckpt.server = server.ExportState();
      }
      ckpt.metrics = out.metrics->Snapshot();
      ckpt.wal_next_lsn = wal->next_lsn();
      const uint64_t ordinal = per_epoch.size();
      const std::string path =
          options.durable_dir + "/" + ReplayCheckpointFileName(ordinal);
      {
        Scope span(tracer, Op::kCheckpointWrite);
        TBF_RETURN_NOT_OK(WriteReplayCheckpointFile(ckpt, path));
      }
      std::error_code ec;
      out.checkpoint_bytes.push_back(
          static_cast<uint64_t>(std::filesystem::file_size(path, ec)));
      retained.push_back(RetainedCheckpoint{ordinal, path, ckpt.wal_next_lsn});
      while (retained.size() > static_cast<size_t>(options.keep_checkpoints)) {
        std::remove(retained.front().path.c_str());
        retained.erase(retained.begin());
      }
      Scope span(tracer, Op::kWalRotate);
      TBF_RETURN_NOT_OK(wal->Rotate());
      TBF_RETURN_NOT_OK(wal->CompactBelow(retained.front().wal_next_lsn));
    }
  }
  if (wal != nullptr) {
    Scope span(tracer, Op::kWalSync);
    TBF_RETURN_NOT_OK(wal->Close());
  }
  if (const EpochBudgetLedger* ledger = server.ledger()) {
    out.ledger_totals = ledger->totals();
  }
  if (shadow_ledger) out.shadow_totals = shadow_ledger->totals();
  out.wall_seconds = static_cast<double>(NowNs() - pass_start) * 1e-9;
  return out;
}

}  // namespace servebench
