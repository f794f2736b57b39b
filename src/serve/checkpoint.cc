#include "serve/checkpoint.h"

#include <array>

#include "common/atomic_file.h"
#include "common/byte_codec.h"

namespace tbf {

uint32_t FingerprintEventTrace(const EventTrace& trace) {
  // Byte-stream identical to CRC-ing each field separately (CRC chains
  // across calls), but batching fields into 64 KiB chunks keeps the
  // per-call overhead off the per-event path: durable replays fingerprint
  // the whole trace on every run, so this is sized for 100k+ events.
  uint32_t crc = 0;
  std::string chunk;
  constexpr size_t kFlushAt = size_t{1} << 16;
  chunk.reserve(kFlushAt + 64);
  ByteWriter w(&chunk);
  w.F64(trace.region.min_x);
  w.F64(trace.region.min_y);
  w.F64(trace.region.max_x);
  w.F64(trace.region.max_y);
  w.U64(trace.events.size());
  for (const TimedEvent& event : trace.events) {
    w.U64(static_cast<uint64_t>(event.kind));
    w.F64(event.time);
    w.U64(event.id.size());
    chunk += event.id;
    w.F64(event.location.x);
    w.F64(event.location.y);
    if (chunk.size() >= kFlushAt) {
      crc = Crc32(chunk, crc);
      chunk.clear();
    }
  }
  if (!chunk.empty()) crc = Crc32(chunk, crc);
  return crc;
}

namespace {

constexpr char kCheckpointMagic[] = "TBFCKPT2";
// The line-per-record text format of older builds; refused, not migrated.
constexpr std::string_view kTextCheckpointMagic = "TBFCKPT1 ";
constexpr uint32_t kCheckpointVersion = 4;
constexpr int kMaxStatusCode = static_cast<int>(StatusCode::kAborted);

// The report counters in their on-disk order (const or mutable).
template <typename Counters>
auto ReportFields(Counters& r) {
  return std::array{&r.registered,        &r.assigned,
                    &r.unassigned,        &r.denied,
                    &r.shed,              &r.quarantined,
                    &r.missed_departures, &r.processed_events,
                    &r.faults_dropped,    &r.faults_duplicated,
                    &r.faults_reordered,  &r.faults_stalled,
                    &r.checkpoints_written};
}

// ------------------------------ encoding ---------------------------------

void WriteEpoch(ByteWriter& w, const EpochStats& e) {
  w.I64(e.epoch);
  w.U64(e.worker_arrivals);
  w.U64(e.task_arrivals);
  w.U64(e.departures);
  w.U64(e.assigned);
  w.U64(e.unassigned);
  w.U64(e.denied);
  w.F64(e.obfuscate_seconds);
  w.F64(e.dispatch_seconds);
  w.F64(e.epsilon_spent);
  w.U64(e.denied_epoch_budget);
  w.U64(e.denied_lifetime_budget);
  w.U64(e.shed);
  w.U64(e.quarantined);
}

void WriteTask(ByteWriter& w, const TaskOutcome& t) {
  w.Str(t.task_id);
  w.U8(static_cast<uint8_t>(t.status.code()));
  w.Str(t.status.message());
  w.U8(t.worker.has_value() ? 1 : 0);
  if (t.worker) w.Str(*t.worker);
  w.F64(t.reported_tree_distance);
}

void WriteSpends(ByteWriter& w,
                 const std::vector<std::pair<std::string, double>>& spends) {
  w.U64(spends.size());
  for (const auto& [user, eps] : spends) {
    w.Str(user);
    w.F64(eps);
  }
}

void WriteServer(ByteWriter& w, const ShardedServerState& s) {
  w.U8(s.packed ? 1 : 0);
  w.U64(s.assigned_tasks);
  w.U64(s.tree_epoch);
  w.Str(s.rng_state);
  w.U64(s.worker_by_index_id.size());
  for (const std::string& id : s.worker_by_index_id) w.Str(id);
  w.U64(s.free_index_ids.size());
  for (const int id : s.free_index_ids) w.I32(id);
  w.U64(s.workers.size());
  for (const ShardedServerState::Worker& worker : s.workers) {
    w.Str(worker.id);
    w.U64(worker.code);
    w.Str(worker.leaf_digits);
    w.I32(worker.index_id);
    w.I32(worker.shard);
  }
  w.U8(s.ledger.has_value() ? 1 : 0);
  if (s.ledger) {
    w.I64(s.ledger->epoch);
    w.F64(s.ledger->totals.epsilon_spent);
    w.U64(s.ledger->totals.charges);
    w.U64(s.ledger->totals.denied_epoch);
    w.U64(s.ledger->totals.denied_lifetime);
    WriteSpends(w, s.ledger->epoch_spent);
    WriteSpends(w, s.ledger->lifetime_spent);
  }
}

void WriteMetrics(ByteWriter& w, const obs::MetricsSnapshot& m) {
  w.U64(m.counters.size());
  for (const obs::CounterSample& sample : m.counters) {
    w.Str(sample.name);
    w.F64(sample.value);
  }
  w.U64(m.gauges.size());
  for (const obs::GaugeSample& sample : m.gauges) {
    w.Str(sample.name);
    w.I64(sample.value);
  }
  w.U64(m.histograms.size());
  for (const obs::HistogramSample& sample : m.histograms) {
    w.Str(sample.name);
    w.U64(sample.count);
    w.U64(sample.sum);
    for (const uint64_t bucket : sample.buckets) w.U64(bucket);
  }
}

// ------------------------------ decoding ---------------------------------

// Reads a count-prefixed vector. `min_bytes` is the smallest encoding of
// one element, so a corrupt count is refused before the reserve.
template <typename T, typename ReadOne>
Status ReadVector(ByteReader& r, size_t min_bytes, const char* what,
                  std::vector<T>* out, ReadOne read_one) {
  TBF_ASSIGN_OR_RETURN(const uint64_t count, r.Count(min_bytes, what));
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    T item{};
    TBF_RETURN_NOT_OK(read_one(item));
    out->push_back(std::move(item));
  }
  return Status::OK();
}

Result<bool> ReadFlag(ByteReader& r, const char* what) {
  TBF_ASSIGN_OR_RETURN(const uint8_t v, r.U8());
  if (v > 1) {
    return Status::InvalidArgument(std::string("checkpoint: ") + what +
                                   " flag must be 0 or 1, got " +
                                   std::to_string(v));
  }
  return v == 1;
}

Status ReadEpoch(ByteReader& r, EpochStats& e) {
  TBF_ASSIGN_OR_RETURN(e.epoch, r.I64());
  TBF_ASSIGN_OR_RETURN(e.worker_arrivals, r.U64());
  TBF_ASSIGN_OR_RETURN(e.task_arrivals, r.U64());
  TBF_ASSIGN_OR_RETURN(e.departures, r.U64());
  TBF_ASSIGN_OR_RETURN(e.assigned, r.U64());
  TBF_ASSIGN_OR_RETURN(e.unassigned, r.U64());
  TBF_ASSIGN_OR_RETURN(e.denied, r.U64());
  TBF_ASSIGN_OR_RETURN(e.obfuscate_seconds, r.F64());
  TBF_ASSIGN_OR_RETURN(e.dispatch_seconds, r.F64());
  TBF_ASSIGN_OR_RETURN(e.epsilon_spent, r.F64());
  TBF_ASSIGN_OR_RETURN(e.denied_epoch_budget, r.U64());
  TBF_ASSIGN_OR_RETURN(e.denied_lifetime_budget, r.U64());
  TBF_ASSIGN_OR_RETURN(e.shed, r.U64());
  TBF_ASSIGN_OR_RETURN(e.quarantined, r.U64());
  return Status::OK();
}

Status ReadTask(ByteReader& r, TaskOutcome& t) {
  TBF_ASSIGN_OR_RETURN(t.task_id, r.Str());
  TBF_ASSIGN_OR_RETURN(const uint8_t code, r.U8());
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("checkpoint: task '" + t.task_id +
                                   "': status code " + std::to_string(code) +
                                   " out of range");
  }
  TBF_ASSIGN_OR_RETURN(std::string message, r.Str());
  t.status = code == 0 ? Status::OK()
                       : Status(static_cast<StatusCode>(code), message);
  TBF_ASSIGN_OR_RETURN(const bool has_worker, ReadFlag(r, "task worker"));
  if (has_worker) {
    TBF_ASSIGN_OR_RETURN(t.worker, r.Str());
  }
  TBF_ASSIGN_OR_RETURN(t.reported_tree_distance, r.F64());
  return Status::OK();
}

Status ReadSpends(ByteReader& r,
                  std::vector<std::pair<std::string, double>>* spends) {
  return ReadVector(r, 4 + 8, "ledger spends", spends,
                    [&r](std::pair<std::string, double>& spend) -> Status {
                      TBF_ASSIGN_OR_RETURN(spend.first, r.Str());
                      TBF_ASSIGN_OR_RETURN(spend.second, r.F64());
                      return Status::OK();
                    });
}

Status ReadServer(ByteReader& r, ShardedServerState& s) {
  TBF_ASSIGN_OR_RETURN(s.packed, ReadFlag(r, "packed"));
  TBF_ASSIGN_OR_RETURN(s.assigned_tasks, r.U64());
  TBF_ASSIGN_OR_RETURN(s.tree_epoch, r.U64());
  TBF_ASSIGN_OR_RETURN(s.rng_state, r.Str());
  TBF_RETURN_NOT_OK(ReadVector(r, 4, "index slots", &s.worker_by_index_id,
                               [&r](std::string& id) -> Status {
                                 TBF_ASSIGN_OR_RETURN(id, r.Str());
                                 return Status::OK();
                               }));
  TBF_RETURN_NOT_OK(ReadVector(r, 4, "free index ids", &s.free_index_ids,
                               [&r](int& id) -> Status {
                                 TBF_ASSIGN_OR_RETURN(id, r.I32());
                                 return Status::OK();
                               }));
  TBF_RETURN_NOT_OK(ReadVector(
      r, 4 + 8 + 4 + 4 + 4, "workers", &s.workers,
      [&r](ShardedServerState::Worker& worker) -> Status {
        TBF_ASSIGN_OR_RETURN(worker.id, r.Str());
        TBF_ASSIGN_OR_RETURN(worker.code, r.U64());
        TBF_ASSIGN_OR_RETURN(worker.leaf_digits, r.Str());
        TBF_ASSIGN_OR_RETURN(worker.index_id, r.I32());
        TBF_ASSIGN_OR_RETURN(worker.shard, r.I32());
        return Status::OK();
      }));
  TBF_ASSIGN_OR_RETURN(const bool has_ledger, ReadFlag(r, "ledger"));
  if (has_ledger) {
    EpochBudgetLedger::State& ledger = s.ledger.emplace();
    TBF_ASSIGN_OR_RETURN(ledger.epoch, r.I64());
    TBF_ASSIGN_OR_RETURN(ledger.totals.epsilon_spent, r.F64());
    TBF_ASSIGN_OR_RETURN(ledger.totals.charges, r.U64());
    TBF_ASSIGN_OR_RETURN(ledger.totals.denied_epoch, r.U64());
    TBF_ASSIGN_OR_RETURN(ledger.totals.denied_lifetime, r.U64());
    TBF_RETURN_NOT_OK(ReadSpends(r, &ledger.epoch_spent));
    TBF_RETURN_NOT_OK(ReadSpends(r, &ledger.lifetime_spent));
  }
  return Status::OK();
}

Status ReadMetrics(ByteReader& r, obs::MetricsSnapshot& m) {
  TBF_RETURN_NOT_OK(ReadVector(r, 4 + 8, "counters", &m.counters,
                               [&r](obs::CounterSample& sample) -> Status {
                                 TBF_ASSIGN_OR_RETURN(sample.name, r.Str());
                                 TBF_ASSIGN_OR_RETURN(sample.value, r.F64());
                                 return Status::OK();
                               }));
  TBF_RETURN_NOT_OK(ReadVector(r, 4 + 8, "gauges", &m.gauges,
                               [&r](obs::GaugeSample& sample) -> Status {
                                 TBF_ASSIGN_OR_RETURN(sample.name, r.Str());
                                 TBF_ASSIGN_OR_RETURN(sample.value, r.I64());
                                 return Status::OK();
                               }));
  return ReadVector(
      r, 4 + 8 * (2 + obs::Histogram::kBuckets), "histograms", &m.histograms,
      [&r](obs::HistogramSample& sample) -> Status {
        TBF_ASSIGN_OR_RETURN(sample.name, r.Str());
        TBF_ASSIGN_OR_RETURN(sample.count, r.U64());
        TBF_ASSIGN_OR_RETURN(sample.sum, r.U64());
        for (uint64_t& bucket : sample.buckets) {
          TBF_ASSIGN_OR_RETURN(bucket, r.U64());
        }
        return Status::OK();
      });
}

}  // namespace

std::string SerializeReplayCheckpoint(const ReplayCheckpoint& c) {
  std::string payload;
  payload.reserve(1024 + 48 * c.task_outcomes.size() +
                  64 * c.server.workers.size());
  ByteWriter w(&payload);
  w.U32(kCheckpointVersion);
  w.U32(c.trace_fingerprint);
  w.I32(c.num_shards);
  w.F64(c.epoch_seconds);
  w.U64(c.server_seed);
  w.U64(c.obfuscation_seed);
  w.U64(c.next_event);
  w.U64(c.arrivals_obfuscated);
  w.I64(c.next_task_slot);
  w.U64(c.wal_next_lsn);
  for (const uint64_t* field : ReportFields(c.report)) w.U64(*field);
  w.U64(c.per_epoch.size());
  for (const EpochStats& e : c.per_epoch) WriteEpoch(w, e);
  w.U64(c.task_outcomes.size());
  for (const TaskOutcome& t : c.task_outcomes) WriteTask(w, t);
  w.U64(c.quarantined_events.size());
  for (const QuarantineRecord& q : c.quarantined_events) {
    w.U64(q.event_index);
    w.Str(q.id);
    w.Str(q.cause);
  }
  WriteServer(w, c.server);
  WriteMetrics(w, c.metrics);
  return FrameCrcPayload(kCheckpointMagic, payload);
}

Result<ReplayCheckpoint> ParseReplayCheckpoint(const std::string& bytes) {
  if (bytes.starts_with(kTextCheckpointMagic)) {
    return Status::InvalidArgument(
        "checkpoint: TBFCKPT1 is a text checkpoint from an older build; "
        "this build reads only binary TBFCKPT2 checkpoints — start the run "
        "fresh");
  }
  TBF_ASSIGN_OR_RETURN(const std::string payload,
                       UnframeCrcPayload(kCheckpointMagic, bytes, "checkpoint"));
  ByteReader r(payload, "checkpoint: truncated payload");
  ReplayCheckpoint c;
  TBF_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "checkpoint: unsupported version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kCheckpointVersion) + ")");
  }
  c.version = static_cast<int>(version);
  TBF_ASSIGN_OR_RETURN(c.trace_fingerprint, r.U32());
  TBF_ASSIGN_OR_RETURN(c.num_shards, r.I32());
  TBF_ASSIGN_OR_RETURN(c.epoch_seconds, r.F64());
  TBF_ASSIGN_OR_RETURN(c.server_seed, r.U64());
  TBF_ASSIGN_OR_RETURN(c.obfuscation_seed, r.U64());
  TBF_ASSIGN_OR_RETURN(c.next_event, r.U64());
  TBF_ASSIGN_OR_RETURN(c.arrivals_obfuscated, r.U64());
  TBF_ASSIGN_OR_RETURN(c.next_task_slot, r.I64());
  TBF_ASSIGN_OR_RETURN(c.wal_next_lsn, r.U64());
  for (uint64_t* field : ReportFields(c.report)) {
    TBF_ASSIGN_OR_RETURN(*field, r.U64());
  }
  TBF_RETURN_NOT_OK(ReadVector(r, 8 * 14, "epochs", &c.per_epoch,
                               [&r](EpochStats& e) { return ReadEpoch(r, e); }));
  TBF_RETURN_NOT_OK(
      ReadVector(r, 4 + 1 + 4 + 1 + 8, "task outcomes", &c.task_outcomes,
                 [&r](TaskOutcome& t) { return ReadTask(r, t); }));
  TBF_RETURN_NOT_OK(ReadVector(r, 8 + 4 + 4, "quarantine records",
                               &c.quarantined_events,
                               [&r](QuarantineRecord& q) -> Status {
                                 TBF_ASSIGN_OR_RETURN(q.event_index, r.U64());
                                 TBF_ASSIGN_OR_RETURN(q.id, r.Str());
                                 TBF_ASSIGN_OR_RETURN(q.cause, r.Str());
                                 return Status::OK();
                               }));
  TBF_RETURN_NOT_OK(ReadServer(r, c.server));
  TBF_RETURN_NOT_OK(ReadMetrics(r, c.metrics));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("checkpoint: " +
                                   std::to_string(r.remaining()) +
                                   " trailing bytes after the metrics section");
  }
  return c;
}

Status WriteReplayCheckpointFile(const ReplayCheckpoint& checkpoint,
                                 const std::string& path) {
  return WriteFileAtomic(path, SerializeReplayCheckpoint(checkpoint),
                         "checkpoint");
}

Result<ReplayCheckpoint> ReadReplayCheckpointFile(const std::string& path) {
  TBF_ASSIGN_OR_RETURN(const std::string bytes,
                       ReadFileToString(path, "checkpoint"));
  return ParseReplayCheckpoint(bytes);
}

}  // namespace tbf
