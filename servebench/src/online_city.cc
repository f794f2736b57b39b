// online-city: an open loop over simulated Chengdu days into a 4-shard
// engine with epoch and lifetime budgets.
//
// A fixed population of drivers re-registers under the same id on every
// day it is active; riders' tasks carry fresh ids; at day end every driver
// who has not been assigned departs. Every operation has a due time on one
// fixed schedule: slots at a constant offered rate within a day, then a
// short night that opens with the epoch rollover (BeginEpoch). Caller
// threads execute their share of the schedule with no barrier between
// them: driver events by id hash, tasks round-robin, the rollover on caller
// 0 — never by the engine's router, so a router change cannot change the
// load. A task is timed from its due time to the return of SubmitTask, so a
// stall also delays every operation queued behind it.
//
// Reports are obfuscated once, in set-up.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "geo/point.h"
#include "hst/hst_index.h"
#include "privacy/budget.h"
#include "workload/chengdu.h"
#include "workloads.h"

namespace servebench {

using namespace tbf;

namespace {

constexpr int kDays = 10;
constexpr int kDrivers = 8000;
constexpr double kActiveShare = 0.7;  // chance a driver works on a day
constexpr int kShards = 4;
constexpr unsigned kMaxCallers = 4;
constexpr double kOfferedRate = 100000.0;  // slots per second within a day
constexpr double kNightSeconds = 0.005;    // between days
constexpr double kEpochBudget = 1.0;       // one report per user and day
constexpr double kLifetimeBudget = 4.5;    // seven reports per user
constexpr int kRestoreRepsPerPass = 3;

enum class Kind : uint8_t { kRegister, kTask, kDepart, kEpoch };

// One slot of the schedule.
struct Item {
  Kind kind = Kind::kTask;
  int day = 0;          // kEpoch: the epoch it begins
  int32_t driver = -1;  // kRegister / kDepart
  int32_t task = -1;    // kTask: index into City::task_ids
  int32_t report = -1;  // kRegister / kTask: index into City::locations
  double due_s = 0.0;   // offset from the pass start
};

struct City {
  std::vector<Item> items;       // due order
  std::vector<Point> locations;  // true location per report
  std::vector<std::string> driver_ids;
  std::vector<std::string> task_ids;
  size_t tasks = 0;
};

City MakeCity(uint64_t seed) {
  City city;
  for (int d = 0; d < kDrivers; ++d) {
    city.driver_ids.push_back("d" + std::to_string(d));
  }
  Rng rng(DeriveSeed(seed, 12));
  double clock = 0.0;
  const auto schedule = [&](Item item) {
    item.due_s = clock;
    clock += 1.0 / kOfferedRate;
    city.items.push_back(item);
  };
  for (int day = 0; day < kDays; ++day) {
    ChengduConfig config;
    config.day = day;
    config.num_workers = kDrivers;
    OnlineInstance instance = GenerateChengdu(config).MoveValueUnsafe();
    NormalizeToSquare(&instance, 200.0);
    // Drivers come online in the first half of the day, tasks arrive all
    // day; the departures follow.
    std::vector<std::pair<double, Item>> timed;
    std::vector<int32_t> active;
    for (int d = 0; d < kDrivers; ++d) {
      if (rng.Uniform01() >= kActiveShare) continue;
      Item item;
      item.kind = Kind::kRegister;
      item.day = day;
      item.driver = d;
      timed.emplace_back(rng.Uniform(0.0, 0.5), item);
      active.push_back(d);
    }
    for (const Point& location : instance.tasks) {
      Item item;
      item.kind = Kind::kTask;
      item.day = day;
      item.task = static_cast<int32_t>(city.task_ids.size());
      city.task_ids.push_back("t" + std::to_string(day) + "_" +
                              std::to_string(item.task));
      item.report = static_cast<int32_t>(city.locations.size());
      city.locations.push_back(location);
      timed.emplace_back(rng.Uniform(0.0, 1.0), item);
    }
    std::stable_sort(timed.begin(), timed.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (auto& [time, item] : timed) {
      if (item.kind == Kind::kRegister) {
        item.report = static_cast<int32_t>(city.locations.size());
        city.locations.push_back(instance.workers[static_cast<size_t>(item.driver)]);
      }
      schedule(item);
    }
    for (int32_t d : active) {
      Item item;
      item.kind = Kind::kDepart;
      item.day = day;
      item.driver = d;
      schedule(item);
    }
    if (day + 1 < kDays) {
      Item item;
      item.kind = Kind::kEpoch;
      item.day = day + 1;
      schedule(item);
    }
    clock += kNightSeconds;
  }
  city.tasks = city.task_ids.size();
  return city;
}

ShardedServerOptions CityEngineOptions(uint64_t seed,
                                       obs::MetricRegistry* metrics) {
  ShardedServerOptions options;
  options.num_shards = kShards;
  options.epoch_budget = kEpochBudget;
  options.lifetime_budget = kLifetimeBudget;
  options.seed = DeriveSeed(seed, 13);
  options.metrics = metrics;
  return options;
}

int32_t DriverIndex(const std::string& id) {
  return static_cast<int32_t>(std::strtol(id.c_str() + 1, nullptr, 10));
}

enum Outcome : uint8_t {
  kOk,
  kDenied,   // budget refusal of a report
  kMissed,   // departure of a driver a concurrent task just took
  kError,
  kSkipped,  // departure slot of a driver assigned or refused earlier
};

// What one pass observed, per slot (indexed like City::items).
struct PassRecord {
  std::vector<int64_t> start_ns, end_ns;
  std::vector<uint8_t> outcome;
  std::vector<int32_t> assigned_driver;  // kTask: -1 when none
  std::vector<double> caller_busy_s;     // wall minus waiting for due times
  int64_t pass_start_ns = 0;
  // Traced passes only.
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::vector<uint64_t>> home_tasks;  // [caller][shard]
};

// Waits until `due_ns`: sleeps while far away, then spins. Returns the time
// spent waiting.
int64_t WaitUntil(int64_t due_ns) {
  const int64_t start = NowNs();
  int64_t now = start;
  while (now < due_ns) {
    if (due_ns - now > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - 200000));
    } else {
      std::this_thread::yield();
    }
    now = NowNs();
  }
  return now - start;
}

// Runs the whole schedule once against `server`.
void RunPass(const City& city, const std::vector<LeafCode>& reports,
             double epsilon, ShardedTbfServer* server, unsigned callers,
             bool traced, PassRecord* record) {
  const size_t n = city.items.size();
  record->start_ns.assign(n, 0);
  record->end_ns.assign(n, 0);
  record->outcome.assign(n, kSkipped);
  record->assigned_driver.assign(n, -1);
  record->caller_busy_s.assign(callers, 0.0);
  record->home_tasks.assign(callers, std::vector<uint64_t>(kShards, 0));
  std::vector<std::vector<size_t>> queues(callers);
  size_t round_robin = 0;
  const std::hash<std::string> hash;
  for (size_t i = 0; i < n; ++i) {
    const Item& item = city.items[i];
    size_t caller = 0;
    if (item.kind == Kind::kTask) {
      caller = round_robin++ % callers;
    } else if (item.kind != Kind::kEpoch) {
      caller = hash(city.driver_ids[static_cast<size_t>(item.driver)]) % callers;
    }
    queues[caller].push_back(i);
  }
  for (unsigned c = 0; c < callers; ++c) {
    record->tracers.push_back(std::make_unique<Tracer>(traced));
    record->tracers.back()->Reserve(queues[c].size() * 4);
  }
  // Per (day, driver): registered is written and read by the driver's own
  // caller; assigned is set by whichever caller's task took the driver.
  const size_t flags = static_cast<size_t>(kDays) * kDrivers;
  std::vector<uint8_t> registered(flags, 0);
  std::vector<std::atomic<uint8_t>> assigned(flags);
  const std::optional<double> declared = epsilon;
  record->pass_start_ns = NowNs() + 2000000;  // 2 ms for thread start-up
  const int64_t base = record->pass_start_ns;

  const auto caller_main = [&](unsigned c) {
    Tracer* tracer = record->tracers[c].get();
    const ShardRouter& router = server->router();
    const LeafCodec& codec = *server->tree().codec();
    int64_t waited = 0;
    const int64_t thread_start = NowNs();
    for (size_t i : queues[c]) {
      const Item& item = city.items[i];
      waited += WaitUntil(base + static_cast<int64_t>(item.due_s * 1e9));
      const size_t flag = static_cast<size_t>(item.day) * kDrivers +
                          static_cast<size_t>(std::max(item.driver, 0));
      if (item.kind == Kind::kDepart &&
          (!registered[flag] || assigned[flag].load(std::memory_order_relaxed))) {
        continue;  // nothing to depart: assigned, or refused at registration
      }
      record->start_ns[i] = NowNs();
      Status status;
      {
        Scope root(tracer, Op::kEvent, i);
        switch (item.kind) {
          case Kind::kRegister: {
            const LeafCode code = reports[static_cast<size_t>(item.report)];
            if (tracer->enabled()) {
              Scope span(tracer, Op::kRoute, i);
              router.ShardOf(code, codec);
            }
            Scope span(tracer, Op::kRegister, i);
            status = server->RegisterWorker(
                city.driver_ids[static_cast<size_t>(item.driver)], code, declared);
            registered[flag] = status.ok();
            break;
          }
          case Kind::kTask: {
            const LeafCode code = reports[static_cast<size_t>(item.report)];
            if (tracer->enabled()) {
              Scope span(tracer, Op::kRoute, i);
              ++record->home_tasks[c][static_cast<size_t>(router.ShardOf(code, codec))];
            }
            Result<DispatchResult> dispatched = [&] {
              Scope span(tracer, Op::kSubmit, i);
              return server->SubmitTask(
                  city.task_ids[static_cast<size_t>(item.task)], code, declared);
            }();
            if (!dispatched.ok()) {
              status = dispatched.status();
            } else if (dispatched->worker) {
              const int32_t driver = DriverIndex(*dispatched->worker);
              record->assigned_driver[i] = driver;
              assigned[static_cast<size_t>(item.day) * kDrivers +
                       static_cast<size_t>(driver)]
                  .store(1, std::memory_order_relaxed);
            }
            break;
          }
          case Kind::kDepart: {
            Scope span(tracer, Op::kUnregister, i);
            status = server->UnregisterWorker(
                city.driver_ids[static_cast<size_t>(item.driver)]);
            break;
          }
          case Kind::kEpoch: {
            Scope span(tracer, Op::kBeginEpoch, i);
            status = server->BeginEpoch(item.day);
            break;
          }
        }
      }
      record->end_ns[i] = NowNs();
      const bool report = item.kind == Kind::kRegister || item.kind == Kind::kTask;
      if (status.ok()) {
        record->outcome[i] = kOk;
      } else if (report && status.code() == StatusCode::kFailedPrecondition) {
        record->outcome[i] = kDenied;
      } else if (item.kind == Kind::kDepart && status.code() == StatusCode::kNotFound) {
        record->outcome[i] = kMissed;
      } else {
        record->outcome[i] = kError;
      }
    }
    record->caller_busy_s[c] =
        static_cast<double>(NowNs() - thread_start - waited) * 1e-9;
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < callers; ++c) threads.emplace_back(caller_main, c);
  for (std::thread& thread : threads) thread.join();
}

struct PassMetrics {
  std::vector<double> latency_us;   // tasks: due time to return
  std::vector<double> service_us;   // tasks: call to return
  std::vector<double> lateness_us;  // every executed slot: due time to call
  double events_per_s = 0.0;        // slots over the pass's elapsed time
  double achieved_rate_ratio = 0.0; // achieved over offered slot rate
  double backlog_growth = 0.0;      // last-decile over overall median latency
  double assigned_ratio = 0.0;
  double mean_distance = 0.0;
  double busy_s = 0.0;
};

// Output checks of one pass, and its metrics.
PassMetrics CheckPass(const City& city, const PassRecord& record,
                      const ShardedTbfServer& server, RunResult* result) {
  PassMetrics m;
  const size_t n = city.items.size();
  // Per driver, in time order: +1 when an accepted registration starts, -1
  // when an assignment or a departure that consumed it returns. The running
  // sum never goes negative unless some registration was consumed twice.
  struct DriverEvent {
    int64_t t;
    int delta;
    int32_t report;  // registrations: the reported true location
    size_t slot;     // consumptions by a task: its slot, else n
  };
  std::vector<std::vector<DriverEvent>> drivers(kDrivers);
  size_t assigned = 0, unassigned = 0, denied = 0, task_errors = 0;
  size_t executed = 0, errors = 0;
  int64_t last_end = record.pass_start_ns;
  std::vector<std::pair<double, double>> by_due;  // (due, latency) of tasks
  for (size_t i = 0; i < n; ++i) {
    const Item& item = city.items[i];
    const uint8_t outcome = record.outcome[i];
    if (outcome == kSkipped) continue;
    ++executed;
    if (outcome == kError) ++errors;
    last_end = std::max(last_end, record.end_ns[i]);
    const int64_t due =
        record.pass_start_ns + static_cast<int64_t>(item.due_s * 1e9);
    m.lateness_us.push_back(static_cast<double>(record.start_ns[i] - due) / 1e3);
    if (item.kind == Kind::kRegister && outcome == kOk) {
      drivers[static_cast<size_t>(item.driver)].push_back(
          {record.start_ns[i], +1, item.report, n});
    } else if (item.kind == Kind::kDepart && outcome == kOk) {
      drivers[static_cast<size_t>(item.driver)].push_back(
          {record.end_ns[i], -1, -1, n});
    } else if (item.kind == Kind::kTask) {
      const double latency = static_cast<double>(record.end_ns[i] - due) / 1e3;
      m.latency_us.push_back(latency);
      m.service_us.push_back(
          static_cast<double>(record.end_ns[i] - record.start_ns[i]) / 1e3);
      by_due.emplace_back(item.due_s, latency);
      if (outcome == kDenied) {
        ++denied;
      } else if (outcome == kError) {
        ++task_errors;
      } else if (record.assigned_driver[i] < 0) {
        ++unassigned;
      } else {
        ++assigned;
        drivers[static_cast<size_t>(record.assigned_driver[i])].push_back(
            {record.end_ns[i], -1, -1, i});
      }
    }
  }
  double distance = 0.0;
  for (size_t d = 0; d < drivers.size(); ++d) {
    std::vector<DriverEvent>& events = drivers[d];
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      return a.t != b.t ? a.t < b.t : a.delta > b.delta;
    });
    int live = 0;
    int32_t location = -1;
    for (const DriverEvent& event : events) {
      live += event.delta;
      if (event.delta > 0) location = event.report;
      if (live < 0) {
        result->Fail("driver d" + std::to_string(d) +
                     " consumed more often than registered");
        break;
      }
      if (event.slot < n) {
        const Item& task = city.items[event.slot];
        distance += EuclideanDistance(
            city.locations[static_cast<size_t>(task.report)],
            city.locations[static_cast<size_t>(location)]);
      }
    }
  }
  if (assigned + unassigned + denied + task_errors != city.tasks) {
    result->Fail("task accounting: assigned + unassigned + denied + errors != tasks");
  }
  const EpochBudgetLedger* ledger = server.ledger();
  if (ledger == nullptr || ledger->MaxLifetimeSpent() > kLifetimeBudget + 1e-9) {
    result->Fail("a user's lifetime spend exceeds the cap");
  } else if (ledger->totals().denied_lifetime == 0) {
    result->Fail("no lifetime-cap denial: the denial path did no work");
  }
  result->attempted += executed;
  result->failed += errors;

  // Achieved rate: slots over the time to the later of the last return and
  // the last due time (skipped slots complete on time).
  const int64_t schedule_end =
      record.pass_start_ns + static_cast<int64_t>(city.items.back().due_s * 1e9);
  const double elapsed_s =
      static_cast<double>(std::max(last_end, schedule_end) - record.pass_start_ns) *
      1e-9;
  m.events_per_s = static_cast<double>(n) / elapsed_s;
  m.achieved_rate_ratio = city.items.back().due_s / elapsed_s;
  std::sort(by_due.begin(), by_due.end());
  std::vector<double> tail;
  for (size_t i = by_due.size() - by_due.size() / 10; i < by_due.size(); ++i) {
    tail.push_back(by_due[i].second);
  }
  const double overall = Median(m.latency_us);
  m.backlog_growth = overall > 0.0 ? Median(tail) / overall : 0.0;
  m.assigned_ratio = static_cast<double>(assigned) / city.tasks;
  m.mean_distance = assigned > 0 ? distance / assigned : 0.0;
  for (double busy : record.caller_busy_s) m.busy_s += busy;
  return m;
}

// Times the layers of one traced pass: the pass's own spans, client-side
// obfuscation call by call (set-up's layers), and the shadow index and
// ledger fed the pass's operations in the order they started.
LayerSheet TraceLayers(const City& city, const TbfFramework& framework,
                       const std::vector<LeafCode>& reports,
                       uint64_t obfuscation_seed, const PassRecord& record,
                       const PassMetrics& pass, double untraced_busy_s,
                       const obs::MetricsSnapshot& snapshot, RunResult* result,
                       std::vector<std::vector<Span>>* spans) {
  TraceSummary summary;
  for (const auto& tracer : record.tracers) Summarize(tracer->spans(), &summary);
  LayerSheet sheet;
  sheet.SetFromSummary(summary);
  sheet.Set("serve.replay_self.ns", summary.of(Op::kEvent).MeanSelfNs());
  sheet.Set("trace.coverage", summary.covered_ns / (pass.busy_s * 1e9));
  sheet.Set("trace.overhead_s", pass.busy_s - untraced_busy_s);
  const double engine_ns = summary.of(Op::kRegister).total_ns +
                           summary.of(Op::kSubmit).total_ns +
                           summary.of(Op::kUnregister).total_ns +
                           summary.of(Op::kBeginEpoch).total_ns;
  const obs::HistogramSample* lock_wait =
      snapshot.FindHistogram("tbf_serve_lock_wait_ns");
  sheet.Set("serve.lock_wait.share",
            lock_wait != nullptr && engine_ns > 0.0
                ? static_cast<double>(lock_wait->sum) / engine_ns
                : 0.0);
  sheet.Set("serve.fanout_ratio",
            snapshot.CounterValue("tbf_serve_crossshard_fanout_total") /
                static_cast<double>(city.tasks));
  std::vector<uint64_t> home(kShards, 0);
  for (const auto& per_caller : record.home_tasks) {
    for (size_t s = 0; s < home.size(); ++s) home[s] += per_caller[s];
  }
  sheet.Set("serve.home_shard_imbalance", MaxOverMean(home));

  Tracer client(true);
  client.Reserve(city.locations.size() * 4);
  const Rng stream(obfuscation_seed);
  const CompleteHst& tree = framework.tree();
  size_t mismatches = 0;
  for (size_t r = 0; r < city.locations.size(); ++r) {
    Scope root(&client, Op::kEvent, r);
    LeafCode truth = 0;
    {
      Scope span(&client, Op::kMapNearest, r);
      truth = tree.MapToNearestLeafCode(city.locations[r]);
    }
    Rng item = [&] {
      Scope span(&client, Op::kRngFork, r);
      return stream.ForkAt(r);
    }();
    Scope span(&client, Op::kSample, r);
    mismatches += framework.mechanism().ObfuscateCodeWith(
                      truth, &item, framework.sampler()) != reports[r];
  }
  if (mismatches != 0) result->Fail("traced obfuscation != ObfuscateCodes");
  TraceSummary client_summary;
  Summarize(client.spans(), &client_summary);
  sheet.Set("common.rng_fork.ns", client_summary.of(Op::kRngFork).MeanNs());
  sheet.Set("hst.map_nearest.ns", client_summary.of(Op::kMapNearest).MeanNs());
  sheet.Set("core.sample.ns", client_summary.of(Op::kSample).MeanNs());

  std::vector<size_t> order;
  for (size_t i = 0; i < city.items.size(); ++i) {
    if (record.outcome[i] != kSkipped) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return record.start_ns[x] < record.start_ns[y];
  });
  Tracer shadow(true);
  HstAvailabilityIndex index(tree.depth(), tree.arity());
  obs::MetricRegistry ledger_metrics;
  EpochBudgetLedger ledger(kEpochBudget, kLifetimeBudget, &ledger_metrics);
  std::vector<int32_t> live_report(kDrivers, -1);  // -1: not in the index
  const auto remove = [&](int32_t driver, size_t i) {
    int32_t& live = live_report[static_cast<size_t>(driver)];
    if (live < 0) return;
    Scope span(&shadow, Op::kIndexRemove, i);
    index.Remove(reports[static_cast<size_t>(live)], driver);
    live = -1;
  };
  for (size_t i : order) {
    const Item& item = city.items[i];
    if (item.kind == Kind::kEpoch) {
      (void)ledger.BeginEpoch(item.day);
      continue;
    }
    if (item.kind != Kind::kDepart) {
      const std::string& id =
          item.kind == Kind::kTask ? city.task_ids[static_cast<size_t>(item.task)]
                                   : city.driver_ids[static_cast<size_t>(item.driver)];
      Scope span(&shadow, Op::kCharge, i);
      (void)ledger.Charge(id, framework.epsilon());
    }
    if (record.outcome[i] != kOk) continue;
    if (item.kind == Kind::kRegister) {
      remove(item.driver, i);
      Scope span(&shadow, Op::kIndexInsert, i);
      index.Insert(reports[static_cast<size_t>(item.report)], item.driver);
      live_report[static_cast<size_t>(item.driver)] = item.report;
    } else if (item.kind == Kind::kTask) {
      {
        Scope span(&shadow, Op::kIndexNearest, i);
        index.Nearest(reports[static_cast<size_t>(item.report)]);
      }
      if (record.assigned_driver[i] >= 0) remove(record.assigned_driver[i], i);
    } else {
      remove(item.driver, i);
    }
  }
  const EpochBudgetLedger::Totals& totals = ledger.totals();
  const double attempts = static_cast<double>(
      totals.charges + totals.denied_epoch + totals.denied_lifetime);
  sheet.Set("privacy.denied_ratio",
            attempts > 0.0 ? (totals.denied_epoch + totals.denied_lifetime) / attempts
                           : 0.0);
  TraceSummary shadow_summary;
  Summarize(shadow.spans(), &shadow_summary);
  LayerSheet shadow_sheet;
  shadow_sheet.SetFromSummary(shadow_summary);
  for (const char* name : {"hst.index_insert.ns", "hst.index_remove.ns",
                           "hst.index_nearest.ns", "privacy.charge.ns",
                           "privacy.charge.max_us"}) {
    sheet.Set(name, shadow_sheet.Get(name));
  }

  spans->clear();
  for (const auto& tracer : record.tracers) spans->push_back(tracer->spans());
  spans->push_back(client.spans());
  spans->push_back(shadow.spans());
  return sheet;
}

}  // namespace

int RunOnlineCity(const Args& args, RunResult* result) {
  const City city = MakeCity(args.seed);
  const unsigned callers =
      std::max(1u, std::min(kMaxCallers, std::thread::hardware_concurrency()));
  Info("slots", static_cast<double>(city.items.size()));
  Info("tasks_per_pass", static_cast<double>(city.tasks));
  Info("reports", static_cast<double>(city.locations.size()));
  Info("callers", static_cast<double>(callers));
  Info("offered_rate_per_s", kOfferedRate);
  const uint64_t obfuscation_seed = DeriveSeed(args.seed, 14);

  // Set-up: tree build, one obfuscation of every report, engine creation.
  // Timed once per pass, interleaved with the passes.
  const auto set_up = [&](std::vector<LeafCode>* reports) {
    ThreadPool pool(1);
    TbfFramework built = BuildGridFramework();
    *reports = built.ObfuscateCodes(city.locations, Rng(obfuscation_seed), &pool);
    return built;
  };
  std::vector<LeafCode> reports;
  const TbfFramework framework = set_up(&reports);
  const double epsilon = framework.epsilon();

  std::unique_ptr<obs::MetricRegistry> metrics;
  std::unique_ptr<ShardedTbfServer> server;
  const auto fresh_engine = [&] {
    server.reset();
    metrics = std::make_unique<obs::MetricRegistry>();
    auto engine = ShardedTbfServer::Create(framework.tree_ptr(),
                                           CityEngineOptions(args.seed, metrics.get()));
    if (!engine.ok()) {
      std::fprintf(stderr, "servebench: %s\n", engine.status().ToString().c_str());
      return false;
    }
    server = std::move(engine).MoveValueUnsafe();
    return true;
  };

  // Untraced passes: the end-to-end numbers. Each pass is preceded by a
  // timed set-up and followed by timed state transfers of its final state.
  const int64_t loop_start = NowNs();
  const double untraced_budget = args.trace ? 0.3 * args.seconds : args.seconds;
  const size_t untraced_min = args.trace ? 2 : 3;
  std::vector<PassMetrics> passes;
  std::vector<double> setup_s, restore_s;
  while (passes.size() < untraced_min || SecondsSince(loop_start) < untraced_budget) {
    {
      std::vector<LeafCode> rebuilt;
      obs::MetricRegistry setup_metrics;
      const int64_t t0 = NowNs();
      const TbfFramework built = set_up(&rebuilt);
      auto engine = ShardedTbfServer::Create(
          built.tree_ptr(), CityEngineOptions(args.seed, &setup_metrics));
      setup_s.push_back(SecondsSince(t0));
      if (!engine.ok() || rebuilt != reports) result->Fail("set-up is not repeatable");
    }
    if (!fresh_engine()) return 1;
    PassRecord record;
    RunPass(city, reports, epsilon, server.get(), callers, false, &record);
    passes.push_back(CheckPass(city, record, *server, result));
    const ShardedServerState state = server->ExportState();
    for (int rep = 0; rep < kRestoreRepsPerPass; ++rep) {
      restore_s.push_back(TimeStateTransfer(framework.tree_ptr(),
                                            CityEngineOptions(args.seed, nullptr),
                                            state, rep == 0, result));
    }
  }
  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.recover_s = Median(restore_s);
  e2e.peak_rss_mb = PeakRssMb();
  const auto median_of = [&](double PassMetrics::*field) {
    std::vector<double> column;
    for (const PassMetrics& p : passes) column.push_back(p.*field);
    return Median(std::move(column));
  };
  const auto pooled = [&](std::vector<double> PassMetrics::*field) {
    std::vector<double> all;
    for (const PassMetrics& p : passes) {
      all.insert(all.end(), (p.*field).begin(), (p.*field).end());
    }
    return all;
  };
  const std::vector<double> latency = pooled(&PassMetrics::latency_us);
  const std::vector<double> service = pooled(&PassMetrics::service_us);
  const std::vector<double> lateness = pooled(&PassMetrics::lateness_us);
  const double q = SupportedQuantile(latency.size(), 0.99);
  const double task_p99 = Quantile(latency, q);
  const double task_p90 = Quantile(latency, 0.9);
  e2e.task_p50_us = Quantile(latency, 0.5);
  e2e.events_per_s = median_of(&PassMetrics::events_per_s);
  e2e.assigned_ratio = median_of(&PassMetrics::assigned_ratio);
  e2e.mean_distance = median_of(&PassMetrics::mean_distance);
  const double backlog = median_of(&PassMetrics::backlog_growth);
  const double achieved = median_of(&PassMetrics::achieved_rate_ratio);
  const double lateness_p50 = Quantile(lateness, 0.5);
  const double lateness_p99 =
      Quantile(lateness, SupportedQuantile(lateness.size(), 0.99));
  Info("untraced.passes", static_cast<double>(passes.size()));
  Info("task_latency.source", "due time to SubmitTask return");
  Info("task_latency.samples", static_cast<double>(latency.size()));
  Info("task_latency.p90_us", task_p90);
  Info("task_latency.p99_quantile", q);
  Info("task_latency.p99_us", task_p99);
  Info("service_p50_us", Quantile(service, 0.5));
  Info("service_p99_us", Quantile(service, SupportedQuantile(service.size(), 0.99)));
  Info("lateness_p50_us", lateness_p50);
  Info("lateness_p99_us", lateness_p99);
  Info("achieved_over_offered", achieved);
  Info("backlog_growth", backlog);
  Info("backlog_flag", backlog > 2.0 || achieved < 0.97 ? "GROWING" : "steady");
  Info("lifetime_denials",
       static_cast<double>(server->ledger()->totals().denied_lifetime));
  Info("epoch_denials", static_cast<double>(server->ledger()->totals().denied_epoch));

  if (!args.trace) {
    e2e.AddTo(result);
    return 0;
  }

  const double untraced_busy = median_of(&PassMetrics::busy_s);
  std::vector<LayerSheet> sheets;
  std::vector<std::vector<Span>> spans;
  while (sheets.empty() || SecondsSince(loop_start) < args.seconds) {
    if (!fresh_engine()) return 1;
    PassRecord record;
    RunPass(city, reports, epsilon, server.get(), callers, true, &record);
    const PassMetrics pass = CheckPass(city, record, *server, result);
    sheets.push_back(TraceLayers(city, framework, reports, obfuscation_seed,
                                 record, pass, untraced_busy,
                                 metrics->Snapshot(), result, &spans));
  }
  LayerSheet layers = MedianSheet(sheets);
  layers.Set("serve.restore.s", e2e.recover_s);
  layers.Set("loadgen.lateness_p50_us", lateness_p50);
  layers.Set("loadgen.lateness_p99_us", lateness_p99);
  layers.Set("loadgen.achieved_rate_ratio", achieved);
  layers.Set("loadgen.backlog_growth", backlog);
  layers.Set("tail.task_p90_us", task_p90);
  layers.Set("tail.task_p99_us", task_p99);
  layers.AddTo(result);
  std::vector<const std::vector<Span>*> buffers;
  for (const auto& buffer : spans) buffers.push_back(&buffer);
  const std::string path = args.out_dir + "/spans-online-city.bin";
  if (!WriteSpans(path, buffers)) result->Fail("could not write " + path);
  Info("spans", path);
  Info("traced.passes", static_cast<double>(sheets.size()));
  return 0;
}

}  // namespace servebench
