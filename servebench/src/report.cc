#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace servebench {

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double SupportedQuantile(size_t n, double q) {
  if (n <= 10) return 0.5;
  return std::min(q, 1.0 - 10.0 / static_cast<double>(n));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "servebench: check failed: %s\n", what.c_str());
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           FormatDouble(metrics_[i].value) + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace servebench
