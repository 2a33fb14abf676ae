// rlmul_bench: runs one rlmul-bench workload in this process and prints
// its result. Usage:
//
//   rlmul_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--out result.json] [--trace-file trace.json]
//               [--work-dir dir]
//
// The last stdout line is {"correct","attempted","failed","metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// The exit code is non-zero when any correctness check failed.
// run.py (next to this file) builds the binary and runs the workloads.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/build_info.hpp"
#include "util/thread_pool.hpp"

namespace rlmul::bench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 33;
}

double Samples::sum() const {
  double s = 0.0;
  for (double v : v_) s += v;
  return s;
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

serve::json::Value Samples::summary() const {
  serve::json::Value v = serve::json::Value::object();
  v["n"] = static_cast<std::uint64_t>(v_.size());
  v["median"] = median();
  v["q1"] = percentile(25);
  v["q3"] = percentile(75);
  return v;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace rlmul::bench

namespace {

using namespace rlmul;
using bench::Metric;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end set (untraced runs), in report order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"search_s", "s"},
    {"designs_per_s", "1/s"}, {"step_ms_p50", "ms"},
    {"step_ms_p90", "ms"},    {"best_cost", "cost"},
    {"hypervolume", "ratio"}, {"peak_rss_mb", "MB"},
    {"jobs_per_s", "1/s"},    {"job_s_p50", "s"},
    {"job_s_p90", "s"},       {"status_us_p50", "us"},
    {"status_us_p90", "us"},
};

/// The per-layer set (traced runs), in report order. A layer a
/// workload never enters reports 0.
constexpr MetricDef kPerLayer[] = {
    {"search.steps", "count"},
    {"search.method_s", "s"},
    {"search.driver_self_s", "s"},
    {"search.method_self_s", "s"},
    {"search.init_s", "s"},
    {"synth.setup_s", "s"},
    {"synth.eval_s", "s"},
    {"synth.evals", "count"},
    {"synth.cache_hits", "count"},
    {"synth.cache_hit_ratio", "ratio"},
    {"synth.inflight_waits", "count"},
    {"synth.calls", "count"},
    {"synth.calls_per_eval", "ratio"},
    {"synth.batches", "count"},
    {"synth.batch_size_avg", "count"},
    {"synth.coalesce_wait_s", "s"},
    {"synth.delta_hits", "count"},
    {"synth.delta_fallbacks", "count"},
    {"synth.delta_hit_ratio", "ratio"},
    {"synth.delta_cone_frac", "ratio"},
    {"netlist.built", "count"},
    {"netlist.cpa_variants_built", "count"},
    {"netlist.reused", "count"},
    {"sta.full_updates", "count"},
    {"sta.incremental_updates", "count"},
    {"sta.gates_retimed", "count"},
    {"sta.gates_retimed_per_eval", "count"},
    {"nn.time_s", "s"},
    {"nn.flops", "count"},
    {"nn.gflops", "GFLOP/s"},
    {"nt.gemm_s", "s"},
    {"nn.share", "ratio"},
    {"dsdb.hits", "count"},
    {"dsdb.misses", "count"},
    {"dsdb.appends", "count"},
    {"dsdb.flushes", "count"},
    {"dsdb.hit_ratio", "ratio"},
    {"dsdb.journal_bytes", "bytes"},
    {"serve.queue_wait_s", "s"},
    {"serve.run_s", "s"},
    {"serve.events", "count"},
    {"serve.busy_rejects", "count"},
    {"serve.monitor_late_ms_p90", "ms"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: rlmul_bench --workload <sa_tree16|dqn_tree16|"
               "sa_joint16|serve_mix16> --seed N --seconds S --trace 0|1\n"
               "                   [--out FILE] [--trace-file FILE] "
               "[--work-dir DIR]\n");
  return 2;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Process placement, before any library thread exists. The shared
/// pool sizes itself from hardware_concurrency(), which ignores CPU
/// affinity, so it is sized here from the CPUs this process may use.
serve::json::Value place_process(const std::string& workload) {
  std::vector<int> cpus = allowed_cpus();
  if (workload == "sa_tree16" && !cpus.empty()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus.front(), &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) cpus.resize(1);
    setenv("RLMUL_SYNTH_THREADS", "1", 1);
  } else if (std::getenv("RLMUL_SYNTH_THREADS") == nullptr) {
    setenv("RLMUL_SYNTH_THREADS", std::to_string(cpus.size()).c_str(), 1);
  }
  serve::json::Value v = serve::json::Value::object();
  serve::json::Value list = serve::json::Value::array();
  for (int c : cpus) list.push_back(c);
  v["cpus"] = list;
  v["nproc"] = static_cast<std::uint64_t>(cpus.size());
  v["hardware_concurrency"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  return v;
}

serve::json::Value env_knobs() {
  serve::json::Value v = serve::json::Value::object();
  for (const char* k :
       {"RLMUL_BATCH_EVAL", "RLMUL_DELTA_EVAL", "RLMUL_FASTPATH",
        "RLMUL_GEMM", "RLMUL_SYNTH_THREADS"}) {
    const char* raw = std::getenv(k);
    v[k] = raw != nullptr ? serve::json::Value(raw) : serve::json::Value();
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opts.workload = v;
    else if (k == "--seed") opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opts.seconds = std::atof(v.c_str());
    else if (k == "--trace") {
      opts.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--out") opts.out_path = v;
    else if (k == "--trace-file") opts.trace_path = v;
    else if (k == "--work-dir") opts.work_dir = v;
    else return usage();
  }
  if (opts.workload.empty() || !have_trace || !(opts.seconds > 0.0) ||
      argc % 2 == 0) {
    return usage();
  }
  if (opts.trace_path.empty()) opts.trace_path = "rlmul-bench-trace.json";
  if (opts.work_dir.empty()) opts.work_dir = ".";

  serve::json::Value placement = place_process(opts.workload);
  placement["shared_pool_threads"] =
      util::ThreadPool::shared().size();

  bench::Report rep;
  try {
    rep = opts.workload == "serve_mix16" ? bench::run_serve_workload(opts)
                                         : bench::run_search_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlmul_bench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  // Exactly the metric set of this mode, in table order; a layer the
  // workload never enters reports 0.
  const std::vector<MetricDef> defs =
      opts.trace
          ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
          : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::map<std::string, Metric> by_name;
  for (const Metric& m : rep.metrics) by_name[m.name] = m;
  for (const MetricDef& def : defs) {
    if (by_name.count(def.name) == 0 && !opts.trace) {
      std::fprintf(stderr, "rlmul_bench: metric %s missing\n", def.name);
      return 1;
    }
  }
  for (const auto& [name, m] : by_name) {
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; })) {
      std::fprintf(stderr, "rlmul_bench: unexpected metric %s\n",
                   name.c_str());
      return 1;
    }
  }

  serve::json::Value metrics = serve::json::Value::object();
  serve::json::Value detail_metrics = serve::json::Value::object();
  std::printf("workload %s  seed %llu  trace %d  build %s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
              util::build_info().c_str());
  for (const MetricDef& def : defs) {
    const Metric& m = by_name[def.name];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    serve::json::Value mv = serve::json::Value::object();
    mv["value"] = value;
    mv["unit"] = def.unit;
    metrics[def.name] = mv;
    serve::json::Value dv = mv;
    if (!m.samples.empty()) dv["samples"] = m.samples.summary();
    detail_metrics[def.name] = dv;
    if (m.samples.empty()) {
      std::printf("  %-30s %14.6g %s\n", def.name, value, def.unit);
    } else {
      std::printf("  %-30s %14.6g %-6s (n=%zu q1=%.6g q3=%.6g)\n", def.name,
                  value, def.unit, m.samples.size(), m.samples.percentile(25),
                  m.samples.percentile(75));
    }
  }
  for (const std::string& f : rep.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  if (!opts.out_path.empty()) {
    serve::json::Value d = rep.detail;
    d["workload_name"] = opts.workload;
    d["seed"] = opts.seed;
    d["seconds"] = opts.seconds;
    d["trace"] = opts.trace;
    d["build"] = util::build_info();
    d["placement"] = placement;
    d["env"] = env_knobs();
    d["attempted"] = rep.attempted;
    d["failed"] = rep.failed;
    serve::json::Value fl = serve::json::Value::array();
    for (const std::string& f : rep.failures) fl.push_back(f);
    d["failures"] = fl;
    d["metrics"] = detail_metrics;
    if (std::FILE* f = std::fopen(opts.out_path.c_str(), "w")) {
      const std::string text = d.dump();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }

  serve::json::Value result = serve::json::Value::object();
  result["correct"] = rep.failed == 0;
  result["attempted"] = rep.attempted;
  result["failed"] = rep.failed;
  result["metrics"] = metrics;
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return rep.failed == 0 ? 0 : 1;
}
