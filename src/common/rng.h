// Deterministic random number generation.
//
// All randomized components in the library (tree construction, privacy
// mechanisms, workload generators) draw from an explicitly seeded Rng so
// every experiment is reproducible bit-for-bit.

#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace tbf {

/// \brief Seeded pseudo-random generator with two kinds of stream.
///
/// A sequential stream — built by Rng(seed) or Split() — is a
/// std::mt19937_64, draw for draw. A forked stream — built by ForkAt() —
/// is a counter-based stream of two words: its j-th word (j = 1, 2, ...) is
/// Finalize(state0 + j * gamma) with a per-stream odd gamma, in the style of
/// SplittableRandom. Forking costs a few hash rounds instead of seeding and
/// twisting a 2.5 KB engine, so a per-report stream costs what its
/// sampler costs. Distinct gammas keep two forks from ever sharing a state
/// trajectory: their Weyl sequences can meet at a point, never at two
/// consecutive points.
///
/// Not thread-safe; create one Rng per thread (use Split() or ForkAt() to
/// derive independent streams deterministically).
class Rng {
 public:
  /// Constructs a sequential (mt19937_64) generator from a 64-bit seed.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  Rng(const Rng& other);
  Rng& operator=(const Rng& other);
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  // The leaf draw primitives are defined inline: the mechanism samplers
  // spend a handful of nanoseconds per sample, and an out-of-line call per
  // draw would dominate that budget. Values are identical either way.

  /// \brief Uniform double in [0, 1).
  double Uniform01() {
    // 53-bit mantissa resolution in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }

  /// \brief Uniform integer in [lo, hi] (inclusive bounds).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Standard normal sample scaled to N(mean, stddev^2).
  double Normal(double mean, double stddev);

  /// \brief Exponential sample with the given rate (lambda).
  double Exponential(double rate);

  /// \brief Laplace(0, b) sample (double exponential with scale b).
  double Laplace(double scale);

  /// \brief Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    return Uniform01() < p;
  }

  /// \brief Random permutation of {0, 1, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// \brief Fisher-Yates shuffle of an arbitrary vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// \brief Samples an index in [0, weights.size()) proportionally to
  /// non-negative weights. Returns the last index if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// \brief Derives an independent sequential (mt19937_64) child
  /// generator; deterministic in (parent seed, draw count, salt).
  Rng Split(uint64_t salt = 0);

  /// \brief Stateless per-index child stream: deterministic in (seed,
  /// index) alone — no draws are consumed, so it is const, safe to call
  /// concurrently, and yields the same stream no matter which thread or in
  /// what order item `index` is processed. This is the determinism
  /// foundation of the batch-parallel obfuscation pipeline. The child is a
  /// counter-based stream of a few words: forking is O(1) and allocates
  /// nothing.
  Rng ForkAt(uint64_t index) const;

  /// \brief Raw 64-bit draw.
  uint64_t NextU64() {
    ++draws_;
    if (engine_ != nullptr) return (*engine_)();
    fork_state_ += fork_gamma_;
    return Finalize(fork_state_);
  }

  uint64_t seed() const { return seed_; }

  /// \brief Number of raw 64-bit engine draws consumed so far. Every
  /// public sampling primitive funnels through this count (the std
  /// distribution wrappers draw via a counting adapter), so deltas of
  /// draw_count() measure exactly how many words an operation consumed —
  /// the probe the oblivious-sampler invariance harness asserts on.
  /// Diagnostic only: not part of SerializeState (a restored generator
  /// continues counting from its current value).
  uint64_t draw_count() const { return draws_; }

  /// \brief Serializes seed + full engine state into a printable
  /// space-separated decimal token string. RestoreState round-trips it so
  /// the restored generator continues the draw sequence exactly where the
  /// serialized one left off (crash-safe replay checkpoints rely on this).
  /// A sequential stream serializes as "<seed> <mt19937_64 state>"; a
  /// forked stream as "fork <seed> <state> <gamma>".
  std::string SerializeState() const;

  /// \brief Restores a state produced by SerializeState, of either kind.
  /// On failure the generator is left unchanged and InvalidArgument is
  /// returned.
  Status RestoreState(const std::string& state);

 private:
  // Forked stream at Weyl position `state` with odd increment `gamma`.
  Rng(uint64_t seed, uint64_t state, uint64_t gamma)
      : seed_(seed), fork_state_(state), fork_gamma_(gamma) {}

  // SplitMix64 output finalizer (Stafford variant 13), a bijection.
  static uint64_t Finalize(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // One SplitMix64 step from x; decorrelates seeds derived via Split() and
  // ForkAt().
  static uint64_t Mix(uint64_t x) {
    return Finalize(x + 0x9e3779b97f4a7c15ULL);
  }

  uint64_t seed_;
  uint64_t draws_ = 0;
  // Forked stream state; unused while engine_ is set.
  uint64_t fork_state_ = 0;
  uint64_t fork_gamma_ = 0;
  // The sequential stream; null for a forked stream.
  std::unique_ptr<std::mt19937_64> engine_;
};

}  // namespace tbf
