#pragma once
// rlmul-bench: shared types of the end-to-end search benchmark.
//
// One process runs one workload (see workloads.cpp) for a fixed number
// of seconds and reports, as its last stdout line, the contract object
// {"correct","attempted","failed","metrics"}. The untraced run (trace
// off) reports the end-to-end metrics; the traced run reports the
// per-layer metrics, measured from outside the library: around the
// calls into each layer, never by spans inside it.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace rlmul::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Search seed number `stream` of a workload seed (splitmix64, kept
/// below 2^31 so JSON records it exactly).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Sample set with median / quartiles / percentiles (linear
/// interpolation, the same rule as numpy's default).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double sum() const;
  double mean() const;
  double percentile(double p) const;  ///< p in [0, 100]
  double median() const { return percentile(50.0); }
  /// {"n","median","q1","q3"} — what every result records per metric.
  serve::json::Value summary() const;

 private:
  std::vector<double> v_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;    ///< detailed result JSON ("" = none)
  std::string trace_path;  ///< Chrome trace-event JSON ("" = none)
  std::string work_dir;    ///< scratch space for sockets / dsdb dirs
};

/// One reported metric: its value plus the samples it was taken from
/// (empty for counts and derived ratios). Units come from the metric
/// tables in main.cpp.
struct Metric {
  std::string name;
  double value = 0.0;
  Samples samples;
};

/// Everything a workload run produces.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;        ///< end-to-end or per-layer set
  serve::json::Value detail = serve::json::Value::object();

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  /// Counts one operation; records a failure when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void put(const std::string& name, double value) {
    metrics.push_back({name, value, {}});
  }
  void put(const std::string& name, const Samples& s, double value) {
    metrics.push_back({name, value, s});
  }
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

Report run_search_workload(const Options& opts);
Report run_serve_workload(const Options& opts);

}  // namespace rlmul::bench
