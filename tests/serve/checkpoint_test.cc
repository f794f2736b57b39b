#include "serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace tbf {
namespace {

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check vector (zlib, binascii.crc32, PNG, ...).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental == one-shot.
  const uint32_t partial = Crc32("12345");
  EXPECT_EQ(Crc32("6789", partial), 0xCBF43926u);
}

TEST(FingerprintTest, SeesEveryFieldAndNeverFails) {
  EventTrace a;
  a.region = BBox::Square(100);
  TimedEvent e;
  e.kind = EventKind::kWorkerArrival;
  e.time = 1.5;
  e.id = "w1";
  e.location = Point{3.0, 4.0};
  a.events.push_back(e);

  EventTrace b = a;
  b.events[0].location.x = 3.0000001;
  EXPECT_NE(FingerprintEventTrace(a), FingerprintEventTrace(b));

  EventTrace c = a;
  c.events[0].id = "w2";
  EXPECT_NE(FingerprintEventTrace(a), FingerprintEventTrace(c));

  // Poison traces fingerprint fine (NaN time, empty id).
  EventTrace poison = a;
  poison.events[0].time = std::numeric_limits<double>::quiet_NaN();
  poison.events[0].id = "";
  const uint32_t fp1 = FingerprintEventTrace(poison);
  const uint32_t fp2 = FingerprintEventTrace(poison);
  EXPECT_EQ(fp1, fp2);  // deterministic even for NaN payloads
}

TEST(FingerprintTest, ValueIsPinned) {
  // Journals and checkpoints carry this value as the run identity, so the
  // CRC input (region, count, then per event kind, time, id length, id,
  // location, all little-endian) must never change.
  EventTrace trace;
  trace.region = BBox::Square(100);
  const char* ids[] = {"w1", "t1", "w1", ""};
  const EventKind kinds[] = {EventKind::kWorkerArrival,
                             EventKind::kTaskArrival,
                             EventKind::kWorkerDeparture,
                             EventKind::kTaskArrival};
  for (int i = 0; i < 4; ++i) {
    TimedEvent e;
    e.kind = kinds[i];
    e.time = 0.25 * i - 1.0;
    e.id = ids[i];
    e.location = Point{3.5 * i, 100.0 - 7.25 * i};
    trace.events.push_back(e);
  }
  EXPECT_EQ(FingerprintEventTrace(trace), 0xE6F61E87u);
}

ReplayCheckpoint MakeTrickyCheckpoint() {
  ReplayCheckpoint c;
  c.trace_fingerprint = 0xDEADBEEF;
  c.num_shards = 4;
  c.epoch_seconds = 0.1;  // not exactly representable — bits must survive
  c.server_seed = 7;
  c.obfuscation_seed = 11;
  c.next_event = 42;
  c.arrivals_obfuscated = 33;
  c.next_task_slot = 9;
  c.report.registered = 12;
  c.report.assigned = 5;
  c.report.quarantined = 2;
  c.report.processed_events = 40;
  c.report.faults_duplicated = 1;

  EpochStats epoch;
  epoch.epoch = -3;  // negative epochs are legal (events before t0? keep i64)
  epoch.worker_arrivals = 8;
  epoch.epsilon_spent = 1.23456789012345e-7;
  epoch.shed = 1;
  epoch.quarantined = 2;
  c.per_epoch.push_back(epoch);

  TaskOutcome task;
  task.task_id = "task with spaces and % and -leading";
  task.status = Status::ResourceExhausted("shard 1 backlog full (>4)");
  task.worker = std::nullopt;
  task.reported_tree_distance = 7.25;
  c.task_outcomes.push_back(task);
  TaskOutcome assigned;
  assigned.task_id = "t2";
  assigned.worker = "worker\nwith\tcontrol";
  assigned.reported_tree_distance =
      std::numeric_limits<double>::infinity();  // f64 bits carry inf
  c.task_outcomes.push_back(assigned);

  c.quarantined_events.push_back(
      QuarantineRecord{17, "", "empty event id"});
  c.quarantined_events.push_back(
      QuarantineRecord{21, "-weird id", "non-finite event time"});

  c.server.packed = true;
  c.server.assigned_tasks = 5;
  c.server.rng_state = "7 1234 5678 90";  // spaces survive
  c.server.worker_by_index_id = {"w0", "", "w2"};
  c.server.free_index_ids = {1};
  ShardedServerState::Worker w;
  w.id = "w0";
  w.code = 0xFFFFFFFFFFFFFFFFull;
  w.index_id = 0;
  w.shard = 3;
  c.server.workers.push_back(w);

  EpochBudgetLedger::State ledger;
  ledger.epoch = 2;
  ledger.totals.epsilon_spent = 3.3;
  ledger.totals.charges = 11;
  ledger.totals.denied_epoch = 1;
  ledger.epoch_spent.emplace_back("user a", 0.6);
  ledger.lifetime_spent.emplace_back("user a", 1.8);
  c.server.ledger = ledger;

  obs::CounterSample counter;
  counter.name = "tbf_serve_assigned_total{shard=\"0\"}";
  counter.value = 5.0;
  c.metrics.counters.push_back(counter);
  obs::GaugeSample gauge;
  gauge.name = "tbf_serve_available_workers";
  gauge.value = -2;
  c.metrics.gauges.push_back(gauge);
  obs::HistogramSample hist;
  hist.name = "tbf_serve_dispatch_latency_ns";
  hist.count = 3;
  hist.sum = 4096;
  hist.buckets[10] = 2;
  hist.buckets[12] = 1;
  c.metrics.histograms.push_back(hist);
  return c;
}

TEST(CheckpointTest, SerializeParseRoundTripIsLossless) {
  const ReplayCheckpoint original = MakeTrickyCheckpoint();
  const std::string text = SerializeReplayCheckpoint(original);
  auto parsed = ParseReplayCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ReplayCheckpoint& c = *parsed;

  EXPECT_EQ(c.trace_fingerprint, original.trace_fingerprint);
  EXPECT_EQ(c.num_shards, original.num_shards);
  EXPECT_EQ(c.epoch_seconds, original.epoch_seconds);  // bit-exact
  EXPECT_EQ(c.next_event, original.next_event);
  EXPECT_EQ(c.arrivals_obfuscated, original.arrivals_obfuscated);
  EXPECT_EQ(c.next_task_slot, original.next_task_slot);
  EXPECT_EQ(c.report.registered, original.report.registered);
  EXPECT_EQ(c.report.quarantined, original.report.quarantined);
  EXPECT_EQ(c.report.faults_duplicated, original.report.faults_duplicated);

  ASSERT_EQ(c.per_epoch.size(), 1u);
  EXPECT_EQ(c.per_epoch[0].epoch, -3);
  EXPECT_EQ(c.per_epoch[0].epsilon_spent, original.per_epoch[0].epsilon_spent);
  EXPECT_EQ(c.per_epoch[0].shed, 1u);
  EXPECT_EQ(c.per_epoch[0].quarantined, 2u);

  ASSERT_EQ(c.task_outcomes.size(), 2u);
  EXPECT_EQ(c.task_outcomes[0].task_id, original.task_outcomes[0].task_id);
  EXPECT_EQ(c.task_outcomes[0].status, original.task_outcomes[0].status);
  EXPECT_FALSE(c.task_outcomes[0].worker.has_value());
  EXPECT_EQ(c.task_outcomes[1].worker, original.task_outcomes[1].worker);
  EXPECT_TRUE(std::isinf(c.task_outcomes[1].reported_tree_distance));

  ASSERT_EQ(c.quarantined_events.size(), 2u);
  EXPECT_EQ(c.quarantined_events[0].event_index, 17u);
  EXPECT_EQ(c.quarantined_events[0].id, "");
  EXPECT_EQ(c.quarantined_events[0].cause, "empty event id");
  EXPECT_EQ(c.quarantined_events[1].id, "-weird id");

  EXPECT_EQ(c.server.packed, true);
  EXPECT_EQ(c.server.rng_state, original.server.rng_state);
  EXPECT_EQ(c.server.worker_by_index_id, original.server.worker_by_index_id);
  EXPECT_EQ(c.server.free_index_ids, original.server.free_index_ids);
  ASSERT_EQ(c.server.workers.size(), 1u);
  EXPECT_EQ(c.server.workers[0].code, original.server.workers[0].code);
  EXPECT_EQ(c.server.workers[0].shard, 3);
  ASSERT_TRUE(c.server.ledger.has_value());
  EXPECT_EQ(c.server.ledger->totals.epsilon_spent, 3.3);
  ASSERT_EQ(c.server.ledger->epoch_spent.size(), 1u);
  EXPECT_EQ(c.server.ledger->epoch_spent[0].first, "user a");

  ASSERT_EQ(c.metrics.counters.size(), 1u);
  EXPECT_EQ(c.metrics.counters[0].name, original.metrics.counters[0].name);
  ASSERT_EQ(c.metrics.gauges.size(), 1u);
  EXPECT_EQ(c.metrics.gauges[0].value, -2);
  ASSERT_EQ(c.metrics.histograms.size(), 1u);
  EXPECT_EQ(c.metrics.histograms[0].buckets[10], 2u);
  EXPECT_EQ(c.metrics.histograms[0].sum, 4096u);
}

TEST(CheckpointTest, SerializationIsDeterministic) {
  const ReplayCheckpoint c = MakeTrickyCheckpoint();
  EXPECT_EQ(SerializeReplayCheckpoint(c), SerializeReplayCheckpoint(c));
}

TEST(CheckpointTest, DetectsCorruptionPrecisely) {
  const std::string text =
      SerializeReplayCheckpoint(MakeTrickyCheckpoint());

  // Flipped payload byte: CRC mismatch.
  std::string flipped = text;
  flipped[flipped.size() / 2] ^= 0x01;
  auto r1 = ParseReplayCheckpoint(flipped);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("CRC mismatch"), std::string::npos);

  // Truncated write: length mismatch, not a crash.
  auto r2 = ParseReplayCheckpoint(text.substr(0, text.size() - 10));
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("length mismatch"), std::string::npos);

  // Wrong magic.
  std::string wrong = text;
  wrong[0] = 'X';
  auto r3 = ParseReplayCheckpoint(wrong);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("magic"), std::string::npos);

  // Empty / garbage inputs.
  EXPECT_FALSE(ParseReplayCheckpoint("").ok());
  EXPECT_FALSE(ParseReplayCheckpoint("not a checkpoint at all").ok());
}

// --- payload surgery: the decoder itself, behind a valid CRC ------------

std::string PayloadOf(const std::string& framed) {
  const size_t nl = framed.find('\n');
  EXPECT_NE(nl, std::string::npos);
  return framed.substr(nl + 1);
}

std::string Reframe(const std::string& payload) {
  return FrameCrcPayload("TBFCKPT2", payload);
}

// Payload layout up to the first vector: version u32, trace_fp u32,
// num_shards i32, epoch_seconds f64, two seeds u64, cursor (3 x 8),
// wal_next_lsn u64, 13 report counters u64, then the epoch count u64.
constexpr size_t kOffVersion = 0;
constexpr size_t kOffEpochCount = 4 + 4 + 4 + 8 + 16 + 24 + 8 + 13 * 8;

void PatchU64(std::string* payload, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*payload)[off + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void ExpectRejected(const std::string& bytes, const std::string& substring) {
  auto parsed = ParseReplayCheckpoint(bytes);
  ASSERT_FALSE(parsed.ok()) << "expected error containing '" << substring
                            << "'";
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(substring), std::string::npos)
      << parsed.status();
}

TEST(CheckpointTest, LayoutOffsetsMatchTheEncoder) {
  const std::string payload =
      PayloadOf(SerializeReplayCheckpoint(MakeTrickyCheckpoint()));
  EXPECT_EQ(static_cast<unsigned char>(payload[kOffVersion]), 4u);
  EXPECT_EQ(static_cast<unsigned char>(payload[kOffEpochCount]), 1u);
  for (size_t i = 1; i < 8; ++i) EXPECT_EQ(payload[kOffEpochCount + i], 0);
}

TEST(CheckpointTest, RandomPayloadMutationsNeverCrashTheDecoder) {
  // Re-framing with a fresh CRC hands each mutation to the decoder rather
  // than the CRC check: it must decode to a checkpoint or refuse with
  // InvalidArgument, never crash or over-allocate (the ASan job runs this).
  const std::string payload =
      PayloadOf(SerializeReplayCheckpoint(MakeTrickyCheckpoint()));
  std::mt19937 prng(20261017);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = payload;
    const size_t pos = prng() % mutated.size();
    char flip = static_cast<char>(prng() % 256);
    while (flip == mutated[pos]) flip = static_cast<char>(prng() % 256);
    mutated[pos] = flip;
    auto parsed = ParseReplayCheckpoint(Reframe(mutated));
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "byte " << pos << ": " << parsed.status();
    }
  }
}

TEST(CheckpointTest, EveryPayloadPrefixIsRejected) {
  const std::string payload =
      PayloadOf(SerializeReplayCheckpoint(MakeTrickyCheckpoint()));
  for (size_t len = 0; len < payload.size(); ++len) {
    auto parsed = ParseReplayCheckpoint(Reframe(payload.substr(0, len)));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("truncated payload"),
              std::string::npos)
        << parsed.status();
  }
}

TEST(CheckpointTest, HugeVectorCountFailsWithoutAllocating) {
  std::string payload =
      PayloadOf(SerializeReplayCheckpoint(MakeTrickyCheckpoint()));
  PatchU64(&payload, kOffEpochCount, uint64_t{1} << 60);
  ExpectRejected(Reframe(payload), "epochs declared need at least");
  // One more element than the bytes can hold is refused the same way.
  PatchU64(&payload, kOffEpochCount, payload.size() / (8 * 14) + 1);
  ExpectRejected(Reframe(payload), "truncated payload");
}

TEST(CheckpointTest, RejectsTrailingBytes) {
  std::string payload =
      PayloadOf(SerializeReplayCheckpoint(MakeTrickyCheckpoint()));
  payload.append("\0\0\0", 3);
  ExpectRejected(Reframe(payload), "3 trailing bytes");
}

TEST(CheckpointTest, RejectsOtherVersions) {
  std::string payload =
      PayloadOf(SerializeReplayCheckpoint(MakeTrickyCheckpoint()));
  payload[kOffVersion] = 3;
  ExpectRejected(Reframe(payload), "unsupported version 3");
}

TEST(CheckpointTest, RefusesTextCheckpointsOfOlderBuilds) {
  const std::string text_payload = "version 3\ntrace_fp 1\n";
  const std::string old = FrameCrcPayload("TBFCKPT1", text_payload);
  ExpectRejected(old, "text checkpoint from an older build");
}

TEST(CheckpointTest, FileRoundTripIsAtomicAndLossless) {
  const std::string path = ::testing::TempDir() + "/tbf_checkpoint_test.ckpt";
  const ReplayCheckpoint original = MakeTrickyCheckpoint();
  ASSERT_TRUE(WriteReplayCheckpointFile(original, path).ok());
  // Overwrite in place (the rename path) — still readable, still current.
  ReplayCheckpoint second = original;
  second.next_event = 99;
  ASSERT_TRUE(WriteReplayCheckpointFile(second, path).ok());
  auto read = ReadReplayCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->next_event, 99u);
  EXPECT_EQ(read->server.rng_state, original.server.rng_state);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadReplayCheckpointFile(path).ok());  // precise IOError
}

}  // namespace
}  // namespace tbf
