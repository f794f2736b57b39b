#include "privacy/budget.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "common/logging.h"

namespace tbf {

double ComposedEpsilon(double epsilon_per_report, int reports) {
  if (reports <= 0) return 0.0;
  return epsilon_per_report * reports;
}

int MaxReports(double total_budget, double epsilon_per_report) {
  if (epsilon_per_report <= 0.0 || total_budget <= 0.0) return 0;
  // Guard the floor against representation error at exact multiples.
  return static_cast<int>(std::floor(total_budget / epsilon_per_report + 1e-12));
}

namespace {

// Cap admission with a relative tolerance, so spends that reach a cap
// exactly are admitted despite representation error at exact multiples.
inline bool FitsCap(double spent, double epsilon, double cap) {
  return spent + epsilon <= cap * (1.0 + 1e-12);
}

// A chargeable epsilon is strictly positive AND finite. `epsilon <= 0.0`
// alone would let NaN through (every comparison with NaN is false) and
// +inf past it, silently corrupting every subsequent cap check.
inline bool ChargeableEpsilon(double epsilon) {
  return std::isfinite(epsilon) && epsilon > 0.0;
}

}  // namespace

EpochBudgetLedger::EpochBudgetLedger(double epoch_budget,
                                     std::optional<double> lifetime_budget,
                                     obs::MetricRegistry* metrics)
    : epoch_budget_(epoch_budget), lifetime_budget_(lifetime_budget) {
  TBF_CHECK(epoch_budget > 0.0) << "epoch budget must be positive";
  TBF_CHECK(!lifetime_budget || *lifetime_budget > 0.0)
      << "lifetime budget must be positive";
  if (metrics == nullptr) metrics = obs::MetricRegistry::Global();
  epsilon_spent_metric_ =
      metrics->FindOrCreateDoubleCounter("tbf_privacy_epsilon_spent_total");
  charges_metric_ = metrics->FindOrCreateCounter("tbf_privacy_charges_total");
  denied_epoch_metric_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_privacy_denials_total", "cause", "epoch"));
  denied_lifetime_metric_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_privacy_denials_total", "cause", "lifetime"));
  epoch_metric_ = metrics->FindOrCreateGauge("tbf_privacy_epoch");
  users_metric_ = metrics->FindOrCreateGauge("tbf_privacy_users");
}

Status EpochBudgetLedger::BeginEpoch(int64_t epoch) {
  if (epoch < epoch_) {
    return Status::InvalidArgument("epochs only move forward: at " +
                                   std::to_string(epoch_) + ", asked for " +
                                   std::to_string(epoch));
  }
  if (epoch > epoch_) {
    epoch_ = epoch;
    epoch_spent_.clear();
    epoch_metric_->Set(epoch);
  }
  return Status::OK();
}

void EpochBudgetLedger::AdvanceEpoch() {
  Status status = BeginEpoch(epoch_ + 1);
  TBF_CHECK(status.ok());
}

Status EpochBudgetLedger::Charge(const std::string& user, double epsilon) {
  if (!ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  // Injection site "budget.charge": a scheduled kExhaustBudget refuses the
  // charge exactly as a cap hit would (counted as an epoch denial).
  Status injected = TBF_FAULT_INJECT("budget.charge");
  if (!injected.ok()) {
    ++totals_.denied_epoch;
    denied_epoch_metric_->Add(1);
    return injected;
  }
  const double in_epoch = SpentThisEpoch(user);
  if (!FitsCap(in_epoch, epsilon, epoch_budget_)) {
    ++totals_.denied_epoch;
    denied_epoch_metric_->Add(1);
    return Status::FailedPrecondition("epoch budget exhausted for user " + user);
  }
  const double lifetime = SpentLifetime(user);
  if (lifetime_budget_ && !FitsCap(lifetime, epsilon, *lifetime_budget_)) {
    ++totals_.denied_lifetime;
    denied_lifetime_metric_->Add(1);
    return Status::FailedPrecondition("lifetime budget exhausted for user " +
                                      user);
  }
  epoch_spent_[user] = in_epoch + epsilon;
  lifetime_spent_[user] = lifetime + epsilon;
  totals_.epsilon_spent += epsilon;
  ++totals_.charges;
  epsilon_spent_metric_->Add(epsilon);
  charges_metric_->Add(1);
  users_metric_->Set(static_cast<int64_t>(lifetime_spent_.size()));
  return Status::OK();
}

bool EpochBudgetLedger::CanCharge(const std::string& user, double epsilon) const {
  if (!ChargeableEpsilon(epsilon)) return false;
  if (!FitsCap(SpentThisEpoch(user), epsilon, epoch_budget_)) return false;
  return !lifetime_budget_ ||
         FitsCap(SpentLifetime(user), epsilon, *lifetime_budget_);
}

double EpochBudgetLedger::SpentThisEpoch(const std::string& user) const {
  auto it = epoch_spent_.find(user);
  return it == epoch_spent_.end() ? 0.0 : it->second;
}

double EpochBudgetLedger::SpentLifetime(const std::string& user) const {
  auto it = lifetime_spent_.find(user);
  return it == lifetime_spent_.end() ? 0.0 : it->second;
}

double EpochBudgetLedger::RemainingThisEpoch(const std::string& user) const {
  double rest = epoch_budget_ - SpentThisEpoch(user);
  if (lifetime_budget_) {
    rest = std::min(rest, *lifetime_budget_ - SpentLifetime(user));
  }
  return rest > 0.0 ? rest : 0.0;
}

namespace {

double MaxSpend(const std::unordered_map<std::string, double>& spent) {
  double max_spend = 0.0;
  for (const auto& [user, eps] : spent) max_spend = std::max(max_spend, eps);
  return max_spend;
}

std::vector<std::pair<std::string, double>> SortedSpend(
    const std::unordered_map<std::string, double>& spent) {
  std::vector<std::pair<std::string, double>> out(spent.begin(), spent.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

double EpochBudgetLedger::MaxLifetimeSpent() const {
  return MaxSpend(lifetime_spent_);
}

double EpochBudgetLedger::MaxEpochSpent() const {
  return MaxSpend(epoch_spent_);
}

EpochBudgetLedger::State EpochBudgetLedger::ExportState() const {
  State state;
  state.epoch = epoch_;
  state.epoch_spent = SortedSpend(epoch_spent_);
  state.lifetime_spent = SortedSpend(lifetime_spent_);
  state.totals = totals_;
  return state;
}

Status EpochBudgetLedger::RestoreState(const State& state) {
  for (const auto& [user, eps] : state.epoch_spent) {
    if (!std::isfinite(eps) || eps < 0.0) {
      return Status::InvalidArgument("ledger state: bad epoch spend for " +
                                     user);
    }
  }
  for (const auto& [user, eps] : state.lifetime_spent) {
    if (!std::isfinite(eps) || eps < 0.0) {
      return Status::InvalidArgument("ledger state: bad lifetime spend for " +
                                     user);
    }
  }
  epoch_ = state.epoch;
  epoch_spent_.clear();
  epoch_spent_.insert(state.epoch_spent.begin(), state.epoch_spent.end());
  lifetime_spent_.clear();
  lifetime_spent_.insert(state.lifetime_spent.begin(),
                         state.lifetime_spent.end());
  totals_ = state.totals;
  epoch_metric_->Set(epoch_);
  users_metric_->Set(static_cast<int64_t>(lifetime_spent_.size()));
  return Status::OK();
}

}  // namespace tbf
