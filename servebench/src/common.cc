#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "geo/grid.h"
#include "geo/metric.h"
#include "workloads.h"

namespace servebench {

using namespace tbf;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's per_layer list.
constexpr LayerMetric kLayerMetrics[] = {
    {"common.rng_fork.ns", "ns"},
    {"hst.map_nearest.ns", "ns"},
    {"core.sample.ns", "ns"},
    {"hst.index_insert.ns", "ns"},
    {"hst.index_remove.ns", "ns"},
    {"hst.index_nearest.ns", "ns"},
    {"privacy.charge.ns", "ns"},
    {"privacy.charge.max_us", "us"},
    {"privacy.denied_ratio", "ratio"},
    {"serve.route.ns", "ns"},
    {"serve.register.ns", "ns"},
    {"serve.submit.ns", "ns"},
    {"serve.submit.p99_us", "us"},
    {"serve.unregister.ns", "ns"},
    {"serve.lock_wait.share", "ratio"},
    {"serve.fanout_ratio", "ratio"},
    {"serve.home_shard_imbalance", "ratio"},
    {"serve.wal_append.ns", "ns"},
    {"serve.wal_sync.us", "us"},
    {"serve.wal.bytes_per_event", "B"},
    {"serve.wal.fsyncs", "count"},
    {"serve.checkpoint_write.ms", "ms"},
    {"serve.checkpoint.bytes", "B"},
    {"serve.recover_scan.s", "s"},
    {"serve.restore.s", "s"},
    {"serve.wal_suffix.s", "s"},
    {"serve.replay_self.ns", "ns"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_s", "s"},
    {"loadgen.lateness_p50_us", "us"},
    {"loadgen.lateness_p99_us", "us"},
    {"loadgen.achieved_rate_ratio", "ratio"},
    {"loadgen.backlog_growth", "ratio"},
    {"tail.task_p90_us", "us"},
    {"tail.task_p99_us", "us"},
};

}  // namespace

TbfFramework BuildGridFramework() {
  Rng rng(3);
  auto grid = UniformGridPoints(BBox::Square(200), 32);
  TbfOptions options;
  options.epsilon = 0.6;
  options.sampler = SamplerKind::kWalk;
  auto framework = TbfFramework::Build(std::move(grid).MoveValueUnsafe(),
                                       EuclideanMetric(), &rng, options);
  return std::move(framework).MoveValueUnsafe();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool SameServerState(const ShardedServerState& a, const ShardedServerState& b,
                     std::string* why) {
  const auto differ = [&](const char* field) {
    *why = std::string("engine state differs in ") + field;
    return false;
  };
  if (a.packed != b.packed) return differ("packed");
  if (a.assigned_tasks != b.assigned_tasks) return differ("assigned_tasks");
  if (a.tree_epoch != b.tree_epoch) return differ("tree_epoch");
  if (a.rng_state != b.rng_state) return differ("rng_state");
  if (a.worker_by_index_id != b.worker_by_index_id) {
    return differ("worker_by_index_id");
  }
  if (a.free_index_ids != b.free_index_ids) return differ("free_index_ids");
  if (a.workers.size() != b.workers.size()) return differ("workers");
  for (size_t i = 0; i < a.workers.size(); ++i) {
    const auto& x = a.workers[i];
    const auto& y = b.workers[i];
    if (x.id != y.id || x.code != y.code || x.leaf_digits != y.leaf_digits ||
        x.index_id != y.index_id || x.shard != y.shard) {
      return differ("workers");
    }
  }
  if (a.ledger.has_value() != b.ledger.has_value()) return differ("ledger");
  if (a.ledger) {
    const auto& x = *a.ledger;
    const auto& y = *b.ledger;
    if (x.epoch != y.epoch || x.epoch_spent != y.epoch_spent ||
        x.lifetime_spent != y.lifetime_spent ||
        std::memcmp(&x.totals.epsilon_spent, &y.totals.epsilon_spent,
                    sizeof(double)) != 0 ||
        x.totals.charges != y.totals.charges ||
        x.totals.denied_epoch != y.totals.denied_epoch ||
        x.totals.denied_lifetime != y.totals.denied_lifetime) {
      return differ("ledger");
    }
  }
  return true;
}

bool SameOutcomes(const std::vector<TaskOutcome>& a,
                  const std::vector<TaskOutcome>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "task count differs: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task_id != b[i].task_id ||
        a[i].status.code() != b[i].status.code() ||
        a[i].worker != b[i].worker ||
        std::memcmp(&a[i].reported_tree_distance,
                    &b[i].reported_tree_distance, sizeof(double)) != 0) {
      *why = "task outcome " + std::to_string(i) + " ('" + a[i].task_id +
             "') differs";
      return false;
    }
  }
  return true;
}

double TimeStateTransfer(std::shared_ptr<const CompleteHst> tree,
                         ShardedServerOptions options,
                         const ShardedServerState& state, bool verify,
                         RunResult* result) {
  obs::MetricRegistry metrics;
  options.metrics = &metrics;
  const int64_t t0 = NowNs();
  auto fresh = ShardedTbfServer::Create(std::move(tree), options);
  const Status restored =
      fresh.ok() ? (*fresh)->RestoreState(state) : fresh.status();
  const double seconds = SecondsSince(t0);
  std::string why;
  if (!restored.ok()) {
    result->Fail("state transfer: " + restored.ToString());
  } else if (verify && !SameServerState((*fresh)->ExportState(), state, &why)) {
    result->Fail("state transfer: " + why);
  }
  return seconds;
}

double MaxOverMean(const std::vector<uint64_t>& counts) {
  double sum = 0.0;
  double max = 0.0;
  for (uint64_t c : counts) {
    sum += static_cast<double>(c);
    max = std::max(max, static_cast<double>(c));
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(counts.size())) : 0.0;
}

void EndToEnd::AddTo(RunResult* result) const {
  result->Add("setup_s", setup_s, "s");
  result->Add("events_per_s", events_per_s, "1/s");
  result->Add("task_p50_us", task_p50_us, "us");
  result->Add("recover_s", recover_s, "s");
  result->Add("assigned_ratio", assigned_ratio, "ratio");
  result->Add("mean_distance", mean_distance, "unit");
  result->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

void LayerSheet::Set(const std::string& name, double value) {
  values_[name] = value;
}

double LayerSheet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it != values_.end() ? it->second : 0.0;
}

void LayerSheet::Merge(const LayerSheet& other) {
  for (const auto& [name, value] : other.values_) values_[name] = value;
}

void LayerSheet::AddTo(RunResult* result) const {
  for (const LayerMetric& metric : kLayerMetrics) {
    auto it = values_.find(metric.name);
    result->Add(metric.name, it != values_.end() ? it->second : 0.0,
                metric.unit);
  }
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const LayerMetric& metric : kLayerMetrics) {
      known = known || name == metric.name;
    }
    if (!known) result->Fail("unknown per-layer metric " + name);
  }
}

void LayerSheet::SetFromSummary(const TraceSummary& summary) {
  Set("common.rng_fork.ns", summary.of(Op::kRngFork).MeanNs());
  Set("hst.map_nearest.ns", summary.of(Op::kMapNearest).MeanNs());
  Set("core.sample.ns", summary.of(Op::kSample).MeanNs());
  Set("hst.index_insert.ns", summary.of(Op::kIndexInsert).MeanNs());
  Set("hst.index_remove.ns", summary.of(Op::kIndexRemove).MeanNs());
  Set("hst.index_nearest.ns", summary.of(Op::kIndexNearest).MeanNs());
  const OpStats& charge = summary.of(Op::kCharge);
  Set("privacy.charge.ns", charge.MeanNs());
  Set("privacy.charge.max_us", Quantile(charge.durations_ns, 1.0) / 1e3);
  Set("serve.route.ns", summary.of(Op::kRoute).MeanNs());
  Set("serve.register.ns", summary.of(Op::kRegister).MeanNs());
  const OpStats& submit = summary.of(Op::kSubmit);
  Set("serve.submit.ns", submit.MeanNs());
  Set("serve.submit.p99_us",
      Quantile(submit.durations_ns,
               SupportedQuantile(submit.durations_ns.size(), 0.99)) /
          1e3);
  Set("serve.unregister.ns", summary.of(Op::kUnregister).MeanNs());
  Set("serve.wal_append.ns", summary.of(Op::kWalAppend).MeanNs());
  Set("serve.wal_sync.us", summary.of(Op::kWalSync).MeanNs() / 1e3);
  Set("serve.checkpoint_write.ms",
      summary.of(Op::kCheckpointWrite).MeanNs() / 1e6);
}

LayerSheet MedianSheet(const std::vector<LayerSheet>& passes) {
  LayerSheet out;
  std::map<std::string, std::vector<double>> columns;
  for (const LayerSheet& pass : passes) {
    for (const auto& [name, value] : pass.values_) columns[name].push_back(value);
  }
  for (auto& [name, column] : columns) out.Set(name, Median(std::move(column)));
  return out;
}

void Info(const std::string& key, const std::string& value) {
  std::printf("info %s=%s\n", key.c_str(), value.c_str());
}

void Info(const std::string& key, double value) {
  Info(key, FormatDouble(value));
}

}  // namespace servebench
