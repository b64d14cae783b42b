// Named metrics with units, order statistics, and the JSON the benchmark
// prints.
#ifndef CDSTORE_BENCHMARK_METRICS_H_
#define CDSTORE_BENCHMARK_METRICS_H_

#include <string>
#include <vector>

namespace cdbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    all_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& all() const { return all_; }
  // {"name": {"value": v, "unit": "u"}, ...} in insertion order.
  std::string Json() const;

 private:
  std::vector<Metric> all_;
};

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
inline double Min(std::vector<double> v) { return Quantile(std::move(v), 0); }
// The tail percentile a sample supports with at least ten samples beyond
// it: p99 from 1000 samples, p90 below that.
inline double Tail(std::vector<double> v) {
  double q = v.size() >= 1000 ? 0.99 : 0.90;
  return Quantile(std::move(v), q);
}

// A JSON number with every significant digit (non-finite values become 0).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace cdbench

#endif  // CDSTORE_BENCHMARK_METRICS_H_
