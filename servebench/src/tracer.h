// Outside-in span tracer for the serving benchmark.
//
// The driver wraps every call it makes into a layer's public function in a
// span: operation, start, end, the enclosing span, and the id of the event
// the call serves (all spans of one event share it). Spans stay in memory,
// one buffer per calling thread, and are written out when the run ends. A
// span's self time is its duration minus the durations of its children.
//
// Shadow operations time a layer that has no live handle in the run (the
// availability index, the budget ledger) on a shadow instance fed the
// workload's exact sequence. They run outside every event span and are
// excluded from the traced busy time and from coverage.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class Op : uint16_t {
  kEvent,           // the driver's per-event root span
  kRngFork,         // Rng::ForkAt
  kMapNearest,      // CompleteHst::MapToNearestLeafCode
  kSample,          // HstMechanism::ObfuscateCodeWith
  kRoute,           // ShardRouter::ShardOf
  kRegister,        // ShardedTbfServer::RegisterWorker
  kSubmit,          // ShardedTbfServer::SubmitTask
  kUnregister,      // ShardedTbfServer::UnregisterWorker
  kBeginEpoch,      // ShardedTbfServer::BeginEpoch
  kExportState,     // ShardedTbfServer::ExportState
  kWalAppend,       // WalWriter::Append
  kWalSync,         // WalWriter::Sync / Close
  kWalRotate,       // WalWriter::Rotate / CompactBelow
  kCheckpointWrite, // WriteReplayCheckpointFile
  kRecoverScan,     // RecoverReplayDir
  kRestore,         // ShardedTbfServer::Create + RestoreState
  kWalSuffix,       // ReplayWalSuffix
  kIndexInsert,     // shadow HstAvailabilityIndex::Insert
  kIndexRemove,     // shadow HstAvailabilityIndex::Remove
  kIndexNearest,    // shadow HstAvailabilityIndex::Nearest
  kCharge,          // shadow EpochBudgetLedger::Charge
  kShadow,          // the driver's work feeding the shadows of one event
  kCount,
};

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kEvent: return "serve.replay";
    case Op::kRngFork: return "common.rng_fork";
    case Op::kMapNearest: return "hst.map_nearest";
    case Op::kSample: return "core.sample";
    case Op::kRoute: return "serve.route";
    case Op::kRegister: return "serve.register";
    case Op::kSubmit: return "serve.submit";
    case Op::kUnregister: return "serve.unregister";
    case Op::kBeginEpoch: return "serve.begin_epoch";
    case Op::kExportState: return "serve.export_state";
    case Op::kWalAppend: return "serve.wal_append";
    case Op::kWalSync: return "serve.wal_sync";
    case Op::kWalRotate: return "serve.wal_rotate";
    case Op::kCheckpointWrite: return "serve.checkpoint_write";
    case Op::kRecoverScan: return "serve.recover_scan";
    case Op::kRestore: return "serve.restore";
    case Op::kWalSuffix: return "serve.wal_suffix";
    case Op::kIndexInsert: return "hst.index_insert";
    case Op::kIndexRemove: return "hst.index_remove";
    case Op::kIndexNearest: return "hst.index_nearest";
    case Op::kCharge: return "privacy.charge";
    case Op::kShadow: return "bench.shadow";
    case Op::kCount: break;
  }
  return "?";
}

inline bool IsShadow(Op op) {
  return op == Op::kIndexInsert || op == Op::kIndexRemove ||
         op == Op::kIndexNearest || op == Op::kCharge || op == Op::kShadow;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Event id of spans that serve no single event (window boundaries,
/// checkpoints, recovery).
constexpr uint64_t kNoEvent = ~uint64_t{0};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t event = kNoEvent;
  int32_t parent = -1;  // index into the same buffer, -1 for a root
  Op op = Op::kEvent;
};

/// One thread's span buffer. Disabled tracers record nothing, so the same
/// driver code serves the correctness pass of an untraced invocation.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int32_t Begin(Op op, uint64_t event) {
    if (!enabled_) return -1;
    const int32_t index = static_cast<int32_t>(spans_.size());
    Span span;
    span.event = event;
    span.parent = top_;
    span.op = op;
    spans_.push_back(span);
    top_ = index;
    spans_.back().start_ns = NowNs();
    return index;
  }

  void End(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    top_ = spans_[static_cast<size_t>(index)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }

 private:
  bool enabled_;
  int32_t top_ = -1;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer* tracer, Op op, uint64_t event = kNoEvent)
      : tracer_(tracer), index_(tracer->Begin(op, event)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Per-operation aggregates over one or more span buffers.
struct OpStats {
  uint64_t count = 0;
  double total_ns = 0.0;  // inclusive durations
  double self_ns = 0.0;   // durations minus children
  std::vector<double> durations_ns;

  double MeanNs() const { return count > 0 ? total_ns / count : 0.0; }
  double MeanSelfNs() const { return count > 0 ? self_ns / count : 0.0; }
};

struct TraceSummary {
  std::vector<OpStats> ops = std::vector<OpStats>(static_cast<size_t>(Op::kCount));
  double covered_ns = 0.0;  // self time of every non-shadow span
  double shadow_ns = 0.0;   // duration of shadow root spans

  const OpStats& of(Op op) const { return ops[static_cast<size_t>(op)]; }
};

/// Adds one buffer's spans to `summary`.
void Summarize(const std::vector<Span>& spans, TraceSummary* summary);

/// Writes span buffers as fixed 32-byte little-endian records
/// <start_ns i64><end_ns i64><event u64><parent i32><thread u16><op u16>,
/// preceded by a text header naming the ops. Returns false on IO failure.
bool WriteSpans(const std::string& path,
                const std::vector<const std::vector<Span>*>& buffers);

}  // namespace servebench
