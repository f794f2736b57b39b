// Result assembly for the serving benchmark: named metrics with units,
// order statistics, peak memory, and the one-line JSON result.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Median of `values` (0 for an empty set).
double Median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Highest quantile, capped at `q`, that leaves at least ten samples above
/// it in a set of `n` samples.
double SupportedQuantile(size_t n, double q);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Shortest decimal text that reads back as exactly `value`.
std::string FormatDouble(double value);

/// Metrics of one invocation plus its outcome counters.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Records a failed output check (printed to stderr, clears `correct`).
  void Fail(const std::string& what);

  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace servebench
