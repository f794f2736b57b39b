// The serving engine in its default configuration (one shard, one
// global index): lifecycle, budgets, tie-breaking and input validation.
// The suite keeps the name of the single-index server it used to test;
// tests/serve/sharded_server_test.cc covers K > 1 and the golden
// equivalence with the single-index oracle.

#include "serve/sharded_server.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/hst_mechanism.h"
#include "geo/grid.h"

namespace tbf {
namespace {

std::shared_ptr<const CompleteHst> BuildTree(uint64_t seed = 3) {
  EuclideanMetric metric;
  Rng rng(seed);
  auto grid = UniformGridPoints(BBox::Square(100), 6);
  auto tree = CompleteHst::BuildFromPoints(*grid, metric, &rng);
  EXPECT_TRUE(tree.ok());
  return std::make_shared<const CompleteHst>(std::move(tree).MoveValueUnsafe());
}

std::unique_ptr<ShardedTbfServer> MakeServer(
    std::shared_ptr<const CompleteHst> tree,
    const ShardedServerOptions& options = {}) {
  auto server = ShardedTbfServer::Create(std::move(tree), options);
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(server).MoveValueUnsafe() : nullptr;
}

TEST(TbfServerTest, CreateValidates) {
  EXPECT_FALSE(ShardedTbfServer::Create(nullptr).ok());
  ShardedServerOptions bad;
  bad.lifetime_budget = 0.0;
  EXPECT_FALSE(ShardedTbfServer::Create(BuildTree(), bad).ok());
  EXPECT_TRUE(ShardedTbfServer::Create(BuildTree()).ok());
}

TEST(TbfServerTest, RegisterSubmitLifecycle) {
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterWorker("w1", tree->leaf_of_point(0)).ok());
  ASSERT_TRUE(server->RegisterWorker("w2", tree->leaf_of_point(20)).ok());
  EXPECT_EQ(server->available_workers(), 2u);
  EXPECT_TRUE(server->IsRegistered("w1"));

  auto dispatch = server->SubmitTask("t1", tree->leaf_of_point(1));
  ASSERT_TRUE(dispatch.ok());
  ASSERT_TRUE(dispatch->worker.has_value());
  EXPECT_EQ(*dispatch->worker, "w1");  // nearest on the tree
  EXPECT_EQ(server->available_workers(), 1u);
  EXPECT_EQ(server->assigned_tasks(), 1u);
  EXPECT_FALSE(server->IsRegistered("w1"));  // consumed

  auto second = server->SubmitTask("t2", tree->leaf_of_point(1));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second->worker, "w2");

  auto drained = server->SubmitTask("t3", tree->leaf_of_point(1));
  ASSERT_TRUE(drained.ok());
  EXPECT_FALSE(drained->worker.has_value());
}

TEST(TbfServerTest, IndexIdsAreRecycledAcrossAssignmentChurn) {
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(server->RegisterWorker("a", tree->leaf_of_point(0)).ok());
    ASSERT_TRUE(server->RegisterWorker("b", tree->leaf_of_point(20)).ok());
    auto dispatch =
        server->SubmitTask("t" + std::to_string(round), tree->leaf_of_point(1));
    ASSERT_TRUE(dispatch.ok());
    ASSERT_TRUE(dispatch->worker.has_value());
    ASSERT_TRUE(
        server->UnregisterWorker(*dispatch->worker == "a" ? "b" : "a").ok());
  }
  EXPECT_EQ(server->available_workers(), 0u);
  // Every removal path recycles its id: the pool is bounded by the peak of
  // two concurrent workers, not the 100 registrations performed.
  EXPECT_EQ(server->index_id_pool_size(), 2u);
}

TEST(TbfServerTest, ReportedTreeDistanceMatchesLeaves) {
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(5)).ok());
  LeafPath task_leaf = tree->leaf_of_point(30);
  auto dispatch = server->SubmitTask("t", task_leaf);
  ASSERT_TRUE(dispatch.ok());
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance,
                   tree->TreeDistance(task_leaf, tree->leaf_of_point(5)));
}

TEST(TbfServerTest, RelocationMovesReport) {
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(0)).ok());
  // Relocate to the far corner.
  ASSERT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(35)).ok());
  EXPECT_EQ(server->available_workers(), 1u);
  auto dispatch = server->SubmitTask("t", tree->leaf_of_point(35));
  ASSERT_TRUE(dispatch.ok());
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance, 0.0);
}

TEST(TbfServerTest, UnregisterRemoves) {
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(0)).ok());
  ASSERT_TRUE(server->UnregisterWorker("w").ok());
  EXPECT_EQ(server->available_workers(), 0u);
  EXPECT_EQ(server->UnregisterWorker("w").code(), StatusCode::kNotFound);
}

TEST(TbfServerTest, RejectsWrongDepthLeaves) {
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  LeafPath bad;
  bad.push_back(0);
  EXPECT_FALSE(server->RegisterWorker("w", bad).ok());
  EXPECT_FALSE(server->SubmitTask("t", bad).ok());
}

TEST(TbfServerTest, BudgetEnforcement) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.lifetime_budget = 0.5;
  auto server = MakeServer(tree, options);
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->ledger(), nullptr);

  // Must declare epsilon under enforcement.
  EXPECT_EQ(server->RegisterWorker("w", tree->leaf_of_point(0)).code(),
            StatusCode::kInvalidArgument);
  // Two reports of 0.2 fit; a third exceeds 0.5.
  EXPECT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(0), 0.2).ok());
  EXPECT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(1), 0.2).ok());
  Status third = server->RegisterWorker("w", tree->leaf_of_point(2), 0.2);
  EXPECT_EQ(third.code(), StatusCode::kFailedPrecondition);
  // The refused relocation left the previous registration intact.
  EXPECT_EQ(server->available_workers(), 1u);
  auto dispatch = server->SubmitTask("t", tree->leaf_of_point(1), 0.2);
  ASSERT_TRUE(dispatch.ok());
  EXPECT_EQ(*dispatch->worker, "w");
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance, 0.0);
}

TEST(TbfServerTest, TasksSpendBudgetToo) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.lifetime_budget = 0.3;
  auto server = MakeServer(tree, options);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(0), 0.3).ok());
  EXPECT_TRUE(server->SubmitTask("rider", tree->leaf_of_point(0), 0.3).ok());
  // Same task id again: budget gone.
  auto refused = server->SubmitTask("rider", tree->leaf_of_point(0), 0.3);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TbfServerTest, RandomTieBreakStillNearest) {
  auto tree = BuildTree();
  ShardedServerOptions options;
  options.tie_break = HstTieBreak::kUniformRandom;
  options.seed = 9;
  auto server = MakeServer(tree, options);
  ASSERT_NE(server, nullptr);
  // Two co-located workers, one far: dispatch must pick a co-located one.
  ASSERT_TRUE(server->RegisterWorker("near1", tree->leaf_of_point(7)).ok());
  ASSERT_TRUE(server->RegisterWorker("near2", tree->leaf_of_point(7)).ok());
  ASSERT_TRUE(server->RegisterWorker("far", tree->leaf_of_point(35)).ok());
  auto dispatch = server->SubmitTask("t", tree->leaf_of_point(7));
  ASSERT_TRUE(dispatch.ok());
  EXPECT_NE(*dispatch->worker, "far");
  EXPECT_DOUBLE_EQ(dispatch->reported_tree_distance, 0.0);
}

TEST(TbfServerTest, RandomTieBreakIsUniformAcrossRuns) {
  auto tree = BuildTree();
  std::map<std::string, int> counts;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    ShardedServerOptions options;
    options.tie_break = HstTieBreak::kUniformRandom;
    options.seed = seed;
    auto server = MakeServer(tree, options);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->RegisterWorker("a", tree->leaf_of_point(7)).ok());
    ASSERT_TRUE(server->RegisterWorker("b", tree->leaf_of_point(7)).ok());
    auto dispatch = server->SubmitTask("t", tree->leaf_of_point(7));
    ASSERT_TRUE(dispatch.ok());
    ++counts[*dispatch->worker];
  }
  EXPECT_NEAR(counts["a"] / 2000.0, 0.5, 0.05);
}

TEST(TbfServerTest, EndToEndWithMechanism) {
  // Full workflow: publish tree, clients obfuscate with the mechanism, the
  // server dispatches — nothing but leaves crosses the trust boundary.
  auto tree = BuildTree();
  auto mechanism_result = HstMechanism::Build(*tree, 0.4);
  ASSERT_TRUE(mechanism_result.ok());
  const HstMechanism& mechanism = *mechanism_result;
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);

  Rng rng(21);
  for (int w = 0; w < 20; ++w) {
    Point loc{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    LeafPath reported = mechanism.Obfuscate(tree->MapToNearestLeaf(loc), &rng);
    std::string id = "w";
    id += std::to_string(w);
    ASSERT_TRUE(server->RegisterWorker(id, reported).ok());
  }
  size_t assigned = 0;
  for (int t = 0; t < 10; ++t) {
    Point loc{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    LeafPath reported = mechanism.Obfuscate(tree->MapToNearestLeaf(loc), &rng);
    std::string id = "t";
    id += std::to_string(t);
    auto dispatch = server->SubmitTask(id, reported);
    ASSERT_TRUE(dispatch.ok());
    if (dispatch->worker) ++assigned;
  }
  EXPECT_EQ(assigned, 10u);
  EXPECT_EQ(server->available_workers(), 10u);
}

TEST(TbfServerTest, RejectsOutOfRangeDigits) {
  // Untrusted client input: right depth, digits beyond the published
  // arity. Must be refused cleanly, not abort or corrupt the index.
  auto tree = BuildTree();
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  LeafPath bogus(static_cast<size_t>(tree->depth()),
                 static_cast<char16_t>(tree->arity()));
  EXPECT_FALSE(server->RegisterWorker("evil", bogus).ok());
  EXPECT_FALSE(server->IsRegistered("evil"));
  ASSERT_TRUE(server->RegisterWorker("w", tree->leaf_of_point(0)).ok());
  auto dispatch = server->SubmitTask("t", bogus);
  EXPECT_FALSE(dispatch.ok());
  EXPECT_EQ(server->available_workers(), 1u);  // pool untouched
}

TEST(TbfServerTest, CodeApiMatchesPathApiThroughChurn) {
  // Two identically-seeded servers, one driven by LeafPaths, one by packed
  // LeafCodes: every registration, assignment and distance must agree (the
  // path API packs internally, so both run the same code-native engine).
  auto tree = BuildTree();
  const LeafCodec* codec = tree->codec();
  ASSERT_NE(codec, nullptr);
  auto by_path = MakeServer(tree);
  auto by_code = MakeServer(tree);
  ASSERT_NE(by_path, nullptr);
  ASSERT_NE(by_code, nullptr);

  Rng rng(31);
  const int points = tree->num_points();
  for (int round = 0; round < 200; ++round) {
    const int op = static_cast<int>(rng.UniformInt(0, 2));
    const LeafPath& leaf = tree->leaf_of_point(
        static_cast<int>(rng.UniformInt(0, points - 1)));
    const std::string id = "u" + std::to_string(rng.UniformInt(0, 20));
    if (op == 0) {
      EXPECT_EQ(by_path->RegisterWorker(id, leaf).ok(),
                by_code->RegisterWorker(id, codec->Pack(leaf)).ok());
    } else if (op == 1) {
      auto a = by_path->SubmitTask(id, leaf);
      auto b = by_code->SubmitTask(id, codec->Pack(leaf));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->worker, b->worker) << "round " << round;
      EXPECT_DOUBLE_EQ(a->reported_tree_distance, b->reported_tree_distance);
    } else {
      EXPECT_EQ(by_path->UnregisterWorker(id).ok(),
                by_code->UnregisterWorker(id).ok());
    }
    EXPECT_EQ(by_path->available_workers(), by_code->available_workers());
  }
}

TEST(TbfServerTest, RejectsMalformedLeafCodes) {
  auto tree = BuildTree();
  const LeafCodec* codec = tree->codec();
  ASSERT_NE(codec, nullptr);
  auto server = MakeServer(tree);
  ASSERT_NE(server, nullptr);
  const LeafCode good = codec->Pack(tree->leaf_of_point(0));
  ASSERT_TRUE(ValidateReportedLeafCode(*tree, good).ok());

  const int low = 64 - codec->bits_per_digit() * codec->depth();
  if (low > 0) {
    // Stray bits below the last digit name no leaf: rejected, not aborted.
    EXPECT_FALSE(server->RegisterWorker("w", good | 1).ok());
    EXPECT_FALSE(server->SubmitTask("t", good | 1).ok());
  }
  if ((tree->arity() & (tree->arity() - 1)) != 0) {
    // Non-power-of-two arity: a field holding `arity` is out of range.
    const LeafCode bad = codec->WithDigit(good, 0, tree->arity());
    EXPECT_FALSE(server->RegisterWorker("w", bad).ok());
  }
}

}  // namespace
}  // namespace tbf
