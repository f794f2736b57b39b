// Crash-anywhere recovery supervisor.
//
// A durable replay run leaves two kinds of artifacts in its directory:
// periodic checkpoints `ckpt-<ordinal:08>.ckpt` (serve/checkpoint.h) and
// the segmented event journal `wal-<seq:08>.seg` (serve/wal.h). After a
// crash — mid-append, mid-fsync, mid-rotation, mid-checkpoint — recovery
// proceeds in three steps:
//
//   1. RecoverReplayDir picks the newest *valid* checkpoint. A checkpoint
//      that fails to read with a transient IOError is retried once with a
//      bounded backoff (RecoveryPolicy); one that fails to *parse*
//      (corruption) is rejected permanently and the supervisor falls back
//      to the next-newest. It then scans the journal, repairs the torn
//      tail (truncating at the first bad CRC / short frame with a
//      record-precise report), cross-checks the journal identity against
//      the checkpoint, and locates the replay suffix: the first journal
//      record with lsn >= the checkpoint's wal_next_lsn.
//   2. RunEventReplay (ReplayOptions::recover) restores the checkpoint
//      into a fresh ShardedTbfServer and re-runs its one loop from the
//      checkpoint's cursor, with the journal suffix as a cursor of
//      pending records: every record the loop would append must equal the
//      next pending one (segment headers skipped) or recovery fails with
//      an Internal divergence error. Once none remain it appends again;
//      until then checkpoints are suppressed.
//   3. A dispatched record carries the obfuscated report and the outcome
//      the original run observed, ledger charge included, so the re-run
//      reproduces the decision *and* the privacy spend. ReplayWalSuffix
//      re-applies a suffix from the journal alone, through the same
//      engine call (ApplyEvent) with the journaled reports.
//
// Metrics: tbf_recovery_attempts_total, tbf_recovery_checkpoints_rejected
// _total, tbf_recovery_io_retries_total, tbf_recovery_replayed_records
// _total, tbf_wal_recovered_events_total, tbf_wal_truncated_records_total.
// Fault site: "recovery.scan" fires on every checkpoint read attempt.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "hst/complete_hst.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/sharded_server.h"
#include "serve/wal.h"

namespace tbf {

/// \brief Bounded-retry policy for transient IO during recovery.
struct RecoveryPolicy {
  /// Total attempts per read (1 initial + retries). The issue ships
  /// retry-once: 2 attempts.
  int max_attempts = 2;
  /// Sleep between attempts. Small: the transient faults this guards
  /// against (NFS hiccup, overloaded disk) clear in milliseconds.
  double backoff_seconds = 0.005;
};

/// \brief `ckpt-<ordinal:08>.ckpt`.
std::string ReplayCheckpointFileName(uint64_t ordinal);

/// \brief One surviving, *valid* checkpoint file (retention candidate).
struct RetainedCheckpoint {
  uint64_t ordinal = 0;
  std::string path;
  uint64_t wal_next_lsn = 0;
};

/// \brief Everything RecoverReplayDir learned about a durable directory.
struct RecoveredRun {
  /// Newest valid checkpoint, if any survived.
  std::optional<ReplayCheckpoint> checkpoint;
  std::string checkpoint_path;  ///< "" when no checkpoint survived

  /// Every valid checkpoint, ordinal ascending (for retention/compaction:
  /// compaction must keep the journal back to the *oldest* retained
  /// checkpoint so a later recovery can still fall back to it).
  std::vector<RetainedCheckpoint> retained;

  uint64_t checkpoints_rejected = 0;  ///< corrupt files skipped
  uint64_t io_retries = 0;            ///< transient IO reads retried

  /// Journal scan after torn-tail repair.
  WalScan wal;
  /// Index into wal.records of the first record not covered by the
  /// checkpoint (== wal.records.size() when the checkpoint covers all).
  size_t suffix_begin = 0;
};

/// \brief Scans a durable replay directory: newest-valid checkpoint
/// selection (transient reads retried, corrupt files rejected with
/// fallback), journal scan + torn-tail repair, identity cross-checks,
/// suffix location. Fails (never silently drops events) when the journal
/// has a gap the surviving checkpoints cannot cover.
Result<RecoveredRun> RecoverReplayDir(const std::string& dir,
                                      const RecoveryPolicy& policy = {},
                                      obs::MetricRegistry* metrics = nullptr);

/// \brief An obfuscated report: a packed leaf code, or the digit path when
/// the tree is too deep for 64-bit codes. Departures carry none.
struct EventReport {
  bool packed = true;
  LeafCode code = 0;
  const LeafPath* path = nullptr;  ///< path mode only
};

/// \brief The one engine call of a replayed event, shared by the replay
/// loop and ReplayWalSuffix: registers (kWorkerArrival), submits
/// (kTaskArrival) or unregisters (kWorkerDeparture) `id`. A non-OK
/// `forced` (an injected denial) is returned as a `forced` outcome without
/// reaching the engine. A non-null `ledger` brackets the call, so the
/// outcome carries its charge (epsilon_charged, budget_denied); concurrent
/// callers pass null. A departure's outcome is its unregistration status,
/// of which the journal keeps only WalRecord::missed.
WalOutcome ApplyEvent(ShardedTbfServer* server, WalRecordKind kind,
                      const std::string& id, const EventReport& report,
                      std::optional<double> epsilon, const Status& forced,
                      const EpochBudgetLedger* ledger);

struct WalReplayResult {
  uint64_t replayed_records = 0;  ///< journal records consumed
  uint64_t recovered_events = 0;  ///< dispatched events re-applied
};

/// \brief Re-applies `records[suffix_begin..]` through the engine:
/// BeginEpoch at window markers, every dispatched record through
/// ApplyEvent with its *journaled* report, republishes fast-forwarded from
/// `republish_trees` (the run's schedule). The replayed WalOutcome must
/// equal the journaled one in every field, ledger charge and verdict
/// included (a departure: its missed flag), or this fails with an
/// Internal error naming the record's LSN — recovery must not guess.
/// Forced records are verified without reaching the engine. An event
/// record before any epoch-begin marker (a suffix that does not start at
/// a window boundary) is rejected the same way.
Result<WalReplayResult> ReplayWalSuffix(
    ShardedTbfServer* server, const std::vector<WalRecord>& records,
    size_t suffix_begin, const std::vector<std::shared_ptr<const CompleteHst>>& republish_trees,
    obs::MetricRegistry* metrics = nullptr);

/// \brief ReadHstSnapshotFile with the recovery retry policy: a transient
/// IOError (file vanished mid-read, open refused) is retried up to
/// policy.max_attempts with backoff; a parse error (corruption) fails
/// fast. `io_retries`, when non-null, is incremented per retry.
Result<CompleteHst> ReadHstSnapshotFileWithRetry(
    const std::string& path, const RecoveryPolicy& policy = {},
    uint64_t* io_retries = nullptr);

}  // namespace tbf
