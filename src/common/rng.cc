#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>

namespace tbf {

namespace {

// Per-stream Weyl increment (SplittableRandom's mixGamma): MurmurHash3's
// fmix64, forced odd so the increment is invertible mod 2^64, and
// re-spread when it has too few bit transitions to feed the finalizer well.
uint64_t MixGamma(uint64_t z) {
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  z = (z ^ (z >> 33)) | 1;
  return std::popcount(z ^ (z >> 1)) < 24 ? z ^ 0xaaaaaaaaaaaaaaaaULL : z;
}

constexpr char kForkTag[] = "fork";

// UniformRandomBitGenerator facade over Rng::NextU64 so the std
// distributions below consume bit-identical words to the bare engine
// while every draw lands in draw_count().
struct CountingBits {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return rng->NextU64(); }
  Rng* rng;
};

}  // namespace

Rng::Rng(uint64_t seed)
    : seed_(seed), engine_(std::make_unique<std::mt19937_64>(Mix(seed))) {}

Rng::Rng(const Rng& other)
    : seed_(other.seed_),
      draws_(other.draws_),
      fork_state_(other.fork_state_),
      fork_gamma_(other.fork_gamma_),
      engine_(other.engine_ != nullptr
                  ? std::make_unique<std::mt19937_64>(*other.engine_)
                  : nullptr) {}

Rng& Rng::operator=(const Rng& other) {
  if (this != &other) *this = Rng(other);
  return *this;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  CountingBits bits{this};
  return dist(bits);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  CountingBits bits{this};
  return dist(bits);
}

double Rng::Exponential(double rate) {
  std::exponential_distribution<double> dist(rate);
  CountingBits bits{this};
  return dist(bits);
}

double Rng::Laplace(double scale) {
  // Inverse-CDF: u in (-1/2, 1/2), x = -b * sgn(u) * ln(1 - 2|u|).
  double u = Uniform01() - 0.5;
  double sign = (u < 0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(static_cast<size_t>(std::max(n, 0)));
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(&perm);
  return perm;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0 || weights.empty()) {
    return weights.empty() ? 0 : weights.size() - 1;
  }
  double target = Uniform01() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Split(uint64_t salt) { return Rng(Mix(NextU64() ^ Mix(salt))); }

std::string Rng::SerializeState() const {
  std::ostringstream os;
  if (engine_ != nullptr) {
    os << seed_ << ' ' << *engine_;
  } else {
    os << kForkTag << ' ' << seed_ << ' ' << fork_state_ << ' ' << fork_gamma_;
  }
  return os.str();
}

Status Rng::RestoreState(const std::string& state) {
  std::istringstream is(state);
  if (state.starts_with(kForkTag)) {
    std::string tag;
    uint64_t seed = 0, fork_state = 0, gamma = 0;
    if (!(is >> tag >> seed >> fork_state >> gamma) || tag != kForkTag ||
        (gamma & 1) == 0 || !(is >> std::ws).eof()) {
      return Status::InvalidArgument("Rng::RestoreState: malformed fork token");
    }
    seed_ = seed;
    fork_state_ = fork_state;
    fork_gamma_ = gamma;
    engine_.reset();
    return Status::OK();
  }
  uint64_t seed = 0;
  auto engine = std::make_unique<std::mt19937_64>();
  if (!(is >> seed >> *engine)) {
    return Status::InvalidArgument("Rng::RestoreState: malformed state token");
  }
  seed_ = seed;
  engine_ = std::move(engine);
  return Status::OK();
}

Rng Rng::ForkAt(uint64_t index) const {
  // Different mixing constant than Split so ForkAt(i) never collides with a
  // Split(i) stream of the same parent. The child key is a bijection of the
  // index for a fixed parent; its start point and its gamma come from two
  // unrelated hashes of the key.
  const uint64_t key = Mix(seed_ ^ Mix(index + 0x6a09e667f3bcc909ULL));
  return Rng(key, Mix(key), MixGamma(key));
}

}  // namespace tbf
