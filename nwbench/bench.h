// Shared pieces of the nwbench program: metric records, sample statistics,
// and the per-layer ladder's interface (layers.cc).
#ifndef NWBENCH_BENCH_H_
#define NWBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"

namespace nwbench {

/// ExploreAll state cap of every refresh, in nwqueryd (--refresh-cap)
/// and in-process alike. The daemon's default (65536) makes a K=8
/// refresh of this benchmark's banks take over a minute.
constexpr size_t kRefreshCap = 512;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Nearest-rank percentile, p in [0, 1]. 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 0.5);
}

/// The value of metric `name` in `metrics`, 0 when absent.
inline double MetricValue(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Everything the ladder needs from one workload.
struct LayerInputs {
  std::vector<std::string> bank;
  /// Admission candidates; the first few are timed.
  std::vector<std::string> pool;
  size_t threads = 1;
  /// The documents the workload serves, in its own format mix.
  std::vector<Doc> docs;
  /// The same trees rendered as XML, JSON and trace.
  std::vector<Doc> by_format[3];
  /// The recent documents a daemon refresh replays.
  std::vector<Doc> replay;
};

struct LayerEnv {
  std::string nwqueryd;
  std::string socket_path;
  std::string query_file;
  std::string log_path;
  SpanLog* spans = nullptr;
};

struct LayerResult {
  std::vector<Metric> metrics;
  /// The ladder table and the layer shares, printable.
  std::vector<std::string> lines;
  size_t attempted = 0;
  size_t failed = 0;
  std::string failure;
  /// Mean SUBMIT line size, KB (the JSON-quoted line the protocol rung
  /// parses); one refresh's replay time, ms; and the tokenize and step
  /// rungs' marginals, us per document: the bases of the layer shares
  /// printed beside the ladder.
  double request_kb = 0;
  double replay_ms = 0;
  double tokenize_us = 0;
  double step_us = 0;
};

/// The traced run's per-layer measurements: times each layer's public
/// calls on the workload's own inputs, rung by rung.
LayerResult MeasureLayers(const LayerInputs& in, const LayerEnv& env);

}  // namespace nwbench

#endif  // NWBENCH_BENCH_H_
