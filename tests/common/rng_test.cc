#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stat_policy.h"
#include "common/stats.h"

namespace tbf {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, Uniform01Range) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01Mean) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Uniform01());
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(RngTest, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 9.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(stat.mean(), 10.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(23);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Laplace(2.0));
  // Laplace(0, b): mean 0, variance 2 b^2.
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.variance(), 8.0, 0.3);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerate) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(37);
  std::vector<int> p = rng.Permutation(100);
  std::vector<int> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RngTest, PermutationUniformFirstElement) {
  Rng rng(41);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<size_t>(rng.Permutation(5)[0])];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.02);
  }
}

TEST(RngTest, PermutationEmptyAndNegative) {
  Rng rng(43);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_TRUE(rng.Permutation(-3).empty());
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(47);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.01);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(99);
  Rng parent2(99);
  Rng child1 = parent1.Split(5);
  Rng child2 = parent2.Split(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.NextU64(), child2.NextU64());
  // Different salts after identical draw counts give different streams.
  Rng parent3(99);
  Rng child3 = parent3.Split(6);
  Rng parent4(99);
  Rng child4 = parent4.Split(5);
  int diff = 0;
  for (int i = 0; i < 16; ++i) {
    if (child3.NextU64() != child4.NextU64()) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(RngTest, ForkAtIsStateless) {
  // ForkAt depends on (seed, index) only — not on how many draws the
  // parent has made — so batch items get the same stream no matter when or
  // on which thread they are processed.
  Rng fresh(77);
  Rng burned(77);
  for (int i = 0; i < 100; ++i) burned.NextU64();
  Rng child1 = fresh.ForkAt(9);
  Rng child2 = burned.ForkAt(9);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, ForkAtIndicesAndSeedsDecorrelate) {
  Rng parent(77);
  Rng a = parent.ForkAt(0);
  Rng b = parent.ForkAt(1);
  Rng other_parent(78);
  Rng c = other_parent.ForkAt(0);
  // Distinct from each other and from a Split stream of the same salt.
  Rng parent_copy(77);
  Rng split = parent_copy.Split(0);
  int ab_diff = 0, ac_diff = 0, asplit_diff = 0;
  for (int i = 0; i < 16; ++i) {
    uint64_t draw_a = a.NextU64();
    if (draw_a != b.NextU64()) ++ab_diff;
    if (draw_a != c.NextU64()) ++ac_diff;
    if (draw_a != split.NextU64()) ++asplit_diff;
  }
  EXPECT_GT(ab_diff, 0);
  EXPECT_GT(ac_diff, 0);
  EXPECT_GT(asplit_diff, 0);
}

TEST(RngTest, DrawCountCountsEveryEngineWord) {
  // draw_count() is the probe the oblivious-sampler invariance harness
  // reads: every public primitive must funnel its engine words through it.
  Rng rng(61);
  EXPECT_EQ(rng.draw_count(), 0u);
  rng.NextU64();
  EXPECT_EQ(rng.draw_count(), 1u);
  rng.Uniform01();
  EXPECT_EQ(rng.draw_count(), 2u);
  rng.Bernoulli(0.5);
  EXPECT_EQ(rng.draw_count(), 3u);

  // std-distribution wrappers draw via the counting adapter; they may
  // consume several words per sample (rejection, Box–Muller-style pairs)
  // but every word must land in the count.
  const uint64_t before = rng.draw_count();
  rng.UniformInt(0, 5);
  EXPECT_GT(rng.draw_count(), before);
  const uint64_t before_normal = rng.draw_count();
  rng.Normal(0.0, 1.0);
  EXPECT_GT(rng.draw_count(), before_normal);
  const uint64_t before_exp = rng.draw_count();
  rng.Exponential(1.0);
  EXPECT_GT(rng.draw_count(), before_exp);
}

TEST(RngTest, CountingLeavesValuesUnchanged) {
  // The counter must be a pure observer: the emitted values are the
  // engine's, bit for bit, and two same-seeded generators agree on both
  // values and counts across every primitive.
  Rng a(67), b(67);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.UniformInt(0, 999), b.UniformInt(0, 999));
    EXPECT_EQ(a.Normal(1.0, 2.0), b.Normal(1.0, 2.0));
    EXPECT_EQ(a.Exponential(0.5), b.Exponential(0.5));
    EXPECT_EQ(a.Laplace(1.5), b.Laplace(1.5));
    EXPECT_EQ(a.draw_count(), b.draw_count());
  }
}

TEST(RngTest, DrawCountSurvivesStateRoundTripAsDiagnostic) {
  // SerializeState intentionally excludes the counter (the format predates
  // it and checkpoints must stay stable); a restored generator continues
  // the VALUE sequence exactly while counting onward from its own tally.
  Rng original(71);
  for (int i = 0; i < 10; ++i) original.NextU64();
  const std::string state = original.SerializeState();

  Rng restored(1);  // different seed, different draw history
  restored.NextU64();
  ASSERT_TRUE(restored.RestoreState(state).ok());
  const uint64_t restored_base = restored.draw_count();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(restored.NextU64(), original.NextU64());
  }
  EXPECT_EQ(restored.draw_count() - restored_base, 20u);
}

TEST(RngTest, SequentialStreamWordsArePinned) {
  // Rng(seed) and Split() are mt19937_64 streams, draw for draw: tree
  // builds, workload generators, the server's tie-break RNG and the
  // checkpointed rng_state all depend on these exact words.
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 0x23c18b60556ba7f9ULL);
  EXPECT_EQ(rng.NextU64(), 0xf82564b8ecf0f325ULL);
  EXPECT_EQ(rng.NextU64(), 0xf85ec2b6092ae2ccULL);
  EXPECT_EQ(rng.NextU64(), 0x3fa9c11fdd202736ULL);

  Rng parent(42);
  Rng child = parent.Split(7);
  EXPECT_EQ(child.NextU64(), 0x29a8da3d5c85e312ULL);
  EXPECT_EQ(child.NextU64(), 0xa3f693ca83966bc8ULL);
  EXPECT_EQ(child.NextU64(), 0x9a9835e832c8b7cbULL);
  EXPECT_EQ(child.NextU64(), 0x630ea6c3d8d2bef2ULL);
}

TEST(RngTest, SequentialStateTokenKeepsItsFormat) {
  // Checkpoints store this text: the seed, then the engine's 312 state
  // words and its position.
  const std::string state = Rng(42).SerializeState();
  std::istringstream is(state);
  std::vector<std::string> tokens;
  for (std::string token; is >> token;) tokens.push_back(token);
  ASSERT_EQ(tokens.size(), 314u);
  EXPECT_EQ(tokens.front(), "42");
  EXPECT_EQ(tokens.back(), "312");
}

TEST(RngTest, CopiesContinueIndependentlyForBothStreamKinds) {
  Rng sequential(3);
  sequential.NextU64();
  Rng forked = Rng(3).ForkAt(11);
  forked.NextU64();
  for (Rng* original : {&sequential, &forked}) {
    Rng copy = *original;
    EXPECT_EQ(copy.draw_count(), original->draw_count());
    for (int i = 0; i < 8; ++i) EXPECT_EQ(copy.NextU64(), original->NextU64());
    // Advancing the copy leaves the original where it was.
    Rng reference = *original;
    copy.NextU64();
    EXPECT_EQ(original->NextU64(), reference.NextU64());
  }
  Rng assigned(99);
  assigned = forked;
  EXPECT_EQ(assigned.NextU64(), Rng(forked).NextU64());
  assigned = sequential;
  EXPECT_EQ(assigned.NextU64(), Rng(sequential).NextU64());
}

TEST(RngTest, ForkedStateRoundTripsMidStream) {
  Rng fork = Rng(5).ForkAt(3);
  for (int i = 0; i < 7; ++i) fork.NextU64();
  const std::string state = fork.SerializeState();
  EXPECT_EQ(state.rfind("fork ", 0), 0u) << state;

  // Into a sequential generator, and into a fork of another stream.
  Rng into_sequential(1);
  into_sequential.NextU64();
  ASSERT_TRUE(into_sequential.RestoreState(state).ok());
  Rng into_fork = Rng(6).ForkAt(0);
  ASSERT_TRUE(into_fork.RestoreState(state).ok());
  EXPECT_EQ(into_sequential.SerializeState(), state);
  for (int i = 0; i < 50; ++i) {
    const uint64_t expected = fork.NextU64();
    EXPECT_EQ(into_sequential.NextU64(), expected);
    EXPECT_EQ(into_fork.NextU64(), expected);
  }
  // ForkAt derives from the restored seed, like the original's.
  EXPECT_EQ(into_fork.ForkAt(2).NextU64(), fork.ForkAt(2).NextU64());

  // And back: a sequential token turns a fork into the sequential stream.
  Rng sequential(8);
  sequential.NextU64();
  ASSERT_TRUE(into_fork.RestoreState(sequential.SerializeState()).ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(into_fork.NextU64(), sequential.NextU64());
  }
}

TEST(RngTest, MalformedForkTokenIsRejected) {
  Rng fork = Rng(5).ForkAt(3);
  fork.NextU64();
  const std::string before = fork.SerializeState();
  for (const std::string bad :
       {"fork", "fork 1 2", "fork 1 2 x", "fork 1 2 4", "fork 1 2 3 4",
        "fork 1 2 3 junk", "forks 1 2 3", "fork1 2 3"}) {
    const Status status = fork.RestoreState(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(fork.SerializeState(), before);  // left unchanged
  EXPECT_TRUE(fork.RestoreState("fork 1 2 3").ok());
}

TEST(RngTest, DrawCountCountsForkedWords) {
  // The oblivious sampler's depth + 2 check reads this count off the
  // per-report fork streams.
  Rng fork = Rng(61).ForkAt(4);
  EXPECT_EQ(fork.draw_count(), 0u);
  fork.NextU64();
  EXPECT_EQ(fork.draw_count(), 1u);
  fork.Uniform01();
  EXPECT_EQ(fork.draw_count(), 2u);
  fork.Laplace(1.0);
  EXPECT_EQ(fork.draw_count(), 3u);
  const uint64_t before = fork.draw_count();
  fork.UniformInt(0, 5);
  fork.Normal(0.0, 1.0);
  fork.Exponential(1.0);
  EXPECT_GE(fork.draw_count(), before + 3);
}

// The Weyl increment of a forked stream, read off its state token
// "fork <seed> <state> <gamma>".
uint64_t ForkGamma(const Rng& fork) {
  std::istringstream is(fork.SerializeState());
  std::string tag;
  uint64_t seed = 0, state = 0, gamma = 0;
  is >> tag >> seed >> state >> gamma;
  return gamma;
}

TEST(RngTest, ForkStreamsDoNotCollide) {
  // The first 64 words of 10k forks at adjacent indices, and of 10k forks
  // of adjacent seeds, are all distinct. Two forks walking one state
  // trajectory would repeat each other's words here.
  constexpr int kForks = 10000;
  constexpr int kWords = 64;
  std::vector<uint64_t> words;
  std::vector<uint64_t> gammas;
  words.reserve(2 * kForks * kWords);
  auto collect = [&](Rng fork) {
    gammas.push_back(ForkGamma(fork));
    for (int j = 0; j < kWords; ++j) words.push_back(fork.NextU64());
  };
  const Rng parent(42);
  for (int i = 0; i < kForks; ++i) {
    collect(parent.ForkAt(static_cast<uint64_t>(i)));
  }
  for (int seed = 0; seed < kForks; ++seed) {
    collect(Rng(static_cast<uint64_t>(seed) + 100000).ForkAt(0));
  }
  std::sort(words.begin(), words.end());
  EXPECT_EQ(std::adjacent_find(words.begin(), words.end()), words.end());
  // Structurally too: distinct odd increments mean two Weyl sequences can
  // meet at a point but never walk a common stretch, at any distance.
  for (uint64_t gamma : gammas) EXPECT_EQ(gamma & 1, 1u);
  std::sort(gammas.begin(), gammas.end());
  EXPECT_EQ(std::adjacent_find(gammas.begin(), gammas.end()), gammas.end());
}

// Chi-square test of the joint law of (top bits of fork 2k's word w, top
// bits of fork 2k+1's word w) over disjoint adjacent pairs: independent
// uniform words put 1/256 of the pairs in each 16x16 cell.
std::string AdjacentForkPairTrial(uint64_t seed, int word, int shift) {
  constexpr int kPairs = 256 * 200;
  const Rng parent(seed);
  std::vector<size_t> counts(256, 0);
  for (int k = 0; k < kPairs; ++k) {
    Rng a = parent.ForkAt(2 * static_cast<uint64_t>(k));
    Rng b = parent.ForkAt(2 * static_cast<uint64_t>(k) + 1);
    uint64_t wa = 0, wb = 0;
    for (int j = 0; j <= word; ++j) {
      wa = a.NextU64();
      wb = b.NextU64();
    }
    ++counts[((wa >> shift) & 15) * 16 + ((wb >> shift) & 15)];
  }
  const double chi2 =
      ChiSquareStatistic(counts, std::vector<double>(256, 1.0 / 256));
  const double threshold = ChiSquareQuantile(255);
  if (chi2 <= threshold) return "";
  std::ostringstream failure;
  failure << "chi2=" << chi2 << " > " << threshold << " at df=255";
  return failure.str();
}

TEST(RngTest, AdjacentForksArePairwiseIndependent) {
  tbf::testing::ExpectStatistical(
      "adjacent forks, first word, top nibble", /*primary_seed=*/20261017,
      /*retry_seed=*/3301,
      [](uint64_t seed) { return AdjacentForkPairTrial(seed, 0, 60); });
  tbf::testing::ExpectStatistical(
      "adjacent forks, first word, low nibble", /*primary_seed=*/20261018,
      /*retry_seed=*/3302,
      [](uint64_t seed) { return AdjacentForkPairTrial(seed, 0, 0); });
  tbf::testing::ExpectStatistical(
      "adjacent forks, fifth word, top nibble", /*primary_seed=*/20261019,
      /*retry_seed=*/3303,
      [](uint64_t seed) { return AdjacentForkPairTrial(seed, 4, 60); });
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(53);
  std::vector<int> v = {1, 1, 2, 3, 5, 8, 13};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace tbf
