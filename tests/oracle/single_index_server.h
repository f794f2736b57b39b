// SingleIndexServer — the golden oracle of the serving engine.
//
// One HstAvailabilityIndex over LeafPaths, driven through the path API
// only, with HST-Greedy assignment (Alg. 4), index-id recycling through
// one free list, and an optional per-user lifetime budget. It has no
// shards, locks, packed codes, epochs or metrics, so it shares none of
// the engine's routing, fan-out or code paths: the golden tests drive
// both with one script and require ShardedTbfServer, at any shard
// count, to make the same choices draw for draw.

#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "hst/complete_hst.h"
#include "hst/hst_index.h"
#include "serve/sharded_server.h"

namespace tbf {

struct SingleIndexServerOptions {
  /// When set, every report must declare its epsilon and per-user spend
  /// is capped at this lifetime budget.
  std::optional<double> lifetime_budget;
  HstTieBreak tie_break = HstTieBreak::kCanonical;
  uint64_t seed = 1;
};

class SingleIndexServer {
 public:
  static Result<SingleIndexServer> Create(
      std::shared_ptr<const CompleteHst> tree,
      const SingleIndexServerOptions& options = {}) {
    if (tree == nullptr) return Status::InvalidArgument("tree must not be null");
    if (options.lifetime_budget && !(*options.lifetime_budget > 0.0)) {
      return Status::InvalidArgument("lifetime budget must be positive");
    }
    return SingleIndexServer(std::move(tree), options);
  }

  /// Registers a worker, or relocates a registered one. The charge comes
  /// first: a refused charge leaves any previous registration untouched.
  Status RegisterWorker(const std::string& worker_id, const LeafPath& leaf,
                        std::optional<double> declared_epsilon = std::nullopt) {
    TBF_RETURN_NOT_OK(ValidateReportedLeaf(*tree_, leaf));
    TBF_RETURN_NOT_OK(Charge(worker_id, declared_epsilon));
    auto it = workers_.find(worker_id);
    if (it != workers_.end()) Remove(it);
    const int index_id = AcquireIndexId(worker_id);
    index_.Insert(leaf, index_id);
    workers_[worker_id] = Worker{leaf, index_id};
    return Status::OK();
  }

  Status UnregisterWorker(const std::string& worker_id) {
    auto it = workers_.find(worker_id);
    if (it == workers_.end()) {
      return Status::NotFound("unknown worker " + worker_id);
    }
    Remove(it);
    return Status::OK();
  }

  /// Assigns and consumes the nearest available worker, if any.
  Result<DispatchResult> SubmitTask(
      const std::string& task_id, const LeafPath& leaf,
      std::optional<double> declared_epsilon = std::nullopt) {
    TBF_RETURN_NOT_OK(ValidateReportedLeaf(*tree_, leaf));
    TBF_RETURN_NOT_OK(Charge(task_id, declared_epsilon));
    auto nearest = options_.tie_break == HstTieBreak::kCanonical
                       ? index_.Nearest(leaf)
                       : index_.NearestUniform(leaf, &rng_);
    DispatchResult result;
    if (!nearest) return result;
    const std::string worker_id =
        worker_by_index_id_[static_cast<size_t>(nearest->first)];
    Remove(workers_.find(worker_id));
    ++assigned_tasks_;
    result.worker = worker_id;
    result.reported_tree_distance =
        tree_->TreeDistanceForLcaLevel(nearest->second);
    return result;
  }

  bool IsRegistered(const std::string& worker_id) const {
    return workers_.count(worker_id) > 0;
  }
  size_t available_workers() const { return index_.size(); }
  size_t assigned_tasks() const { return assigned_tasks_; }
  size_t index_id_pool_size() const { return worker_by_index_id_.size(); }

 private:
  struct Worker {
    LeafPath leaf;
    int index_id = -1;
  };

  SingleIndexServer(std::shared_ptr<const CompleteHst> tree,
                    const SingleIndexServerOptions& options)
      : tree_(std::move(tree)),
        options_(options),
        index_(tree_->depth(), tree_->arity()),
        rng_(options.seed) {}

  // The ledger's admission rule: a positive finite epsilon that fits the
  // cap up to a relative 1e-12 (exact multiples reach the cap).
  Status Charge(const std::string& user, std::optional<double> epsilon) {
    if (!options_.lifetime_budget) return Status::OK();
    if (!epsilon) {
      return Status::InvalidArgument(
          "budget enforcement is on: reports must declare their epsilon");
    }
    if (!std::isfinite(*epsilon) || !(*epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive and finite");
    }
    double& spent = spent_[user];
    if (spent + *epsilon > *options_.lifetime_budget * (1.0 + 1e-12)) {
      return Status::FailedPrecondition("lifetime budget exhausted for user " +
                                        user);
    }
    spent += *epsilon;
    return Status::OK();
  }

  int AcquireIndexId(const std::string& worker_id) {
    if (!free_index_ids_.empty()) {
      const int index_id = free_index_ids_.back();
      free_index_ids_.pop_back();
      worker_by_index_id_[static_cast<size_t>(index_id)] = worker_id;
      return index_id;
    }
    worker_by_index_id_.push_back(worker_id);
    return static_cast<int>(worker_by_index_id_.size()) - 1;
  }

  void Remove(std::unordered_map<std::string, Worker>::iterator it) {
    index_.Remove(it->second.leaf, it->second.index_id);
    worker_by_index_id_[static_cast<size_t>(it->second.index_id)].clear();
    free_index_ids_.push_back(it->second.index_id);
    workers_.erase(it);
  }

  std::shared_ptr<const CompleteHst> tree_;
  SingleIndexServerOptions options_;
  HstAvailabilityIndex index_;
  Rng rng_;
  std::unordered_map<std::string, double> spent_;
  std::unordered_map<std::string, Worker> workers_;
  std::vector<std::string> worker_by_index_id_;
  std::vector<int> free_index_ids_;
  size_t assigned_tasks_ = 0;
};

}  // namespace tbf
