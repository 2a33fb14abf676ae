// The three search workloads of rlmul-bench: back-to-back registry
// searches, each on a fresh DesignEvaluator in the default
// configuration, driven step by step through search::Driver.
//
//   sa_tree16   SA, paper's tree-only space, pinned to one CPU
//   dqn_tree16  DQN (the paper's agent), tree-only, all allowed CPUs
//   sa_joint16  SA over the joint CT+CPA+PPG space, all allowed CPUs
//
// A run cycles through a fixed list of `distinct` search seeds derived
// from the workload seed until --seconds have passed (and every seed
// has run once), so best_cost and hypervolume are the same at a fixed
// seed however fast the host is, and every repeat must reproduce its
// first run bit for bit.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "counters.hpp"
#include "search/driver.hpp"
#include "search/registry.hpp"
#include "synth/evaluator.hpp"
#include "trace.hpp"
#include "util/perf_counters.hpp"

namespace rlmul::bench {

namespace {

struct SearchWorkload {
  const char* name;
  const char* method;
  bool joint;          ///< CPA prefix graph + PPG family searched too
  int steps;           ///< step cap per search
  std::size_t budget;  ///< unique synthesis evaluations per search
  int distinct;        ///< distinct search seeds per run
};

constexpr SearchWorkload kSearchWorkloads[] = {
    {"sa_tree16", "sa", false, 400, 300, 8},
    {"dqn_tree16", "dqn", false, 128, 120, 4},
    {"sa_joint16", "sa", true, 400, 300, 8},
};

const SearchWorkload& find_workload(const std::string& name) {
  for (const SearchWorkload& w : kSearchWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown search workload: " + name);
}

/// One finished search.
struct SearchRecord {
  int slot = 0;  ///< index into the run's distinct seed list
  bool traced = false;
  double setup_s = 0.0;  ///< evaluator + method make + Driver::begin
  double synth_setup_s = 0.0;  ///< evaluator construction alone
  double search_s = 0.0;       ///< Driver::begin -> finish
  double job_s = 0.0;          ///< evaluator construction -> finish
  std::uint64_t steps = 0;
  std::vector<double> step_ms;
  std::vector<double> status_us;  ///< status answers, timed from due
  double best_cost = 0.0;
  double hypervolume = 0.0;
  std::string best_key;
  ppg::DesignPoint best_point;
  synth::DesignEval reported;  ///< the evaluator's result for best_point
  bool cost_matches = false;   ///< evaluator.cost(reported) == best_cost
  Counters delta;              ///< perf counters over the search
  synth::DesignEvaluator::Stats stats;  ///< evaluator stats over it
  // Traced searches: outside-in layer times (seconds).
  double init_s = 0.0, method_s = 0.0, driver_self_s = 0.0,
         synth_in_steps_s = 0.0, synth_eval_s = 0.0, unattributed_s = 0.0;
};

/// Open-loop status requests against the search loop: one is due
/// every kStatusPeriod from Driver::begin, and the loop answers every
/// due request with Driver::progress() at the next step boundary — the
/// point where a search can answer status or cancel. Each answer is
/// timed from when its request was due.
constexpr auto kStatusPeriod = std::chrono::microseconds(5000);

search::MethodConfig method_config(const SearchWorkload& w,
                                   std::uint64_t seed) {
  search::MethodConfig cfg;
  cfg.steps = w.steps;
  cfg.seed = seed;
  cfg.search_cpa = w.joint;
  cfg.search_ppg = w.joint;
  return cfg;
}

ppg::MultiplierSpec spec16() {
  ppg::MultiplierSpec spec;
  spec.bits = 16;
  return spec;
}

SearchRecord run_one(const SearchWorkload& w, int slot, std::uint64_t seed,
                     Tracer* tracer, std::uint64_t search_id) {
  SearchRecord rec;
  rec.slot = slot;
  rec.traced = tracer != nullptr;
  const ppg::MultiplierSpec spec = spec16();

  util::perf_counters().reset();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<TracingCache> cache;
  synth::EvaluatorOptions eopts;
  if (tracer != nullptr) {
    cache = std::make_unique<TracingCache>(tracer, search_id);
    eopts.external_cache = cache.get();
  }
  synth::DesignEvaluator evaluator(spec, {}, eopts);
  rec.synth_setup_s = seconds_since(t0);
  std::unique_ptr<search::Method> method =
      search::make_method(w.method, method_config(w, seed));
  if (tracer != nullptr) {
    method = std::make_unique<TracedMethod>(std::move(method), tracer,
                                            search_id);
  }
  search::DriverOptions dopts;
  dopts.eda_budget = w.budget;
  dopts.max_steps = static_cast<std::uint64_t>(w.steps);
  search::Driver driver(evaluator, dopts);
  const Counters c0 = Counters::now();
  const synth::DesignEvaluator::Stats s0 = evaluator.stats();

  const std::int64_t w0 = tracer != nullptr ? tracer->now_ns() : 0;
  const Clock::time_point tb = Clock::now();
  search::RunResult res;
  {
    Scope search_span(tracer, "driver.search", search_id);
    {
      Scope begin_span(tracer, "driver.begin", search_id);
      driver.begin(*method);
    }
    rec.setup_s = seconds_since(t0);
    Clock::time_point status_due = tb + kStatusPeriod;
    for (;;) {
      const Clock::time_point ts = Clock::now();
      bool more = false;
      {
        Scope step_span(tracer, "driver.step", search_id);
        more = driver.step_once(*method);
      }
      const Clock::time_point te = Clock::now();
      if (more) {
        rec.step_ms.push_back(
            std::chrono::duration<double, std::milli>(te - ts).count());
      }
      while (status_due <= te) {
        (void)driver.progress();
        rec.status_us.push_back(std::chrono::duration<double, std::micro>(
                                    Clock::now() - status_due)
                                    .count());
        status_due += kStatusPeriod;
      }
      if (!more) break;
    }
    res = driver.finish(*method);
  }
  rec.search_s = seconds_since(tb);
  rec.job_s = seconds_since(t0);
  const std::int64_t w1 = tracer != nullptr ? tracer->now_ns() : 0;

  rec.delta = Counters::now() - c0;
  const synth::DesignEvaluator::Stats s1 = evaluator.stats();
  rec.stats.unique_evals = s1.unique_evals - s0.unique_evals;
  rec.stats.cache_hits = s1.cache_hits - s0.cache_hits;
  rec.stats.inflight_waits = s1.inflight_waits - s0.inflight_waits;
  rec.steps = res.steps_done;

  rec.best_cost = res.best_cost;
  rec.best_point = res.best_point;
  rec.best_key = res.best_point.key(spec);
  rec.reported = evaluator.evaluate(res.best_point);
  rec.cost_matches =
      same_bits(evaluator.cost(rec.reported, 1.0, 1.0), res.best_cost);
  const HvRef ref =
      hv_reference(evaluator.evaluate(ppg::initial_tree(spec)));
  rec.hypervolume =
      normalized_hypervolume(evaluator.frontier().points(), ref);

  if (tracer != nullptr) {
    const auto ns = [](std::int64_t v) { return static_cast<double>(v) / 1e9; };
    const std::vector<Interval> window{{w0, w1}};
    const auto steps = tracer->intervals(search_id, "driver.step");
    const auto msteps = tracer->intervals(search_id, "method.step");
    const auto synth = tracer->intervals(search_id, "synth.design");
    rec.init_s = ns(union_ns(tracer->intervals(search_id, "method.init")));
    rec.method_s = ns(union_ns(msteps));
    const double step_s = ns(union_ns(steps));
    rec.driver_self_s = step_s - rec.method_s;
    rec.synth_in_steps_s = ns(overlap_ns(synth, msteps));
    rec.synth_eval_s = ns(overlap_ns(synth, window));
    rec.unattributed_s = ns(w1 - w0) - rec.init_s - step_s;
  }
  return rec;
}

/// Per-layer metrics: means over the traced searches.
void put_layer_metrics(Report& rep, const std::vector<SearchRecord>& traced,
                       double traced_search_med, double untraced_search_med) {
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  Counters total;
  double steps = 0, init = 0, method = 0, driver_self = 0, synth_steps = 0,
         synth_eval = 0, unattributed = 0, search = 0, setup = 0, evals = 0,
         hits = 0, waits = 0;
  for (const SearchRecord& r : traced) {
    total += r.delta;
    steps += static_cast<double>(r.steps);
    init += r.init_s;
    method += r.method_s;
    driver_self += r.driver_self_s;
    synth_steps += r.synth_in_steps_s;
    synth_eval += r.synth_eval_s;
    unattributed += r.unattributed_s;
    search += r.search_s;
    setup += r.synth_setup_s;
    evals += static_cast<double>(r.stats.unique_evals);
    hits += static_cast<double>(r.stats.cache_hits);
    waits += static_cast<double>(r.stats.inflight_waits);
  }
  const double nn_s = static_cast<double>(total.nn_time_us) / 1e6 / n;
  rep.put("search.steps", steps / n);
  rep.put("search.method_s", method / n);
  rep.put("search.driver_self_s", driver_self / n);
  rep.put("search.method_self_s", (method - synth_steps) / n - nn_s);
  rep.put("search.init_s", init / n);
  rep.put("synth.setup_s", setup / n);
  rep.put("synth.eval_s", synth_eval / n);
  put_counter_metrics(rep, total, n, evals, hits, waits);
  rep.put("nn.share", ratio(nn_s, search / n));
  rep.put("trace.unattributed_s", unattributed / n);
  rep.put("trace.overhead_frac",
          ratio(traced_search_med, untraced_search_med) - 1.0);
}

}  // namespace

Report run_search_workload(const Options& opts) {
  const SearchWorkload& w = find_workload(opts.workload);
  Report rep;
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < w.distinct; ++k) {
    seeds.push_back(derive_seed(opts.seed, static_cast<std::uint64_t>(k)));
  }

  std::unique_ptr<Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<Tracer>();
  // Warm-up (not reported): lazy pool start-up, cell library, registry.
  run_one(w, 0, seeds[0], nullptr, 0);

  std::vector<SearchRecord> untraced;
  std::vector<SearchRecord> traced;
  std::uint64_t next_id = 1;
  const Clock::time_point start = Clock::now();
  double window_s = 0.0;
  for (int i = 0;; ++i) {
    const int slot = i % w.distinct;
    if (i >= w.distinct && seconds_since(start) >= opts.seconds) break;
    untraced.push_back(run_one(w, slot, seeds[slot], nullptr, next_id++));
    window_s = seconds_since(start);
    if (tracer) {
      traced.push_back(
          run_one(w, slot, seeds[slot], tracer.get(), next_id++));
    }
  }
  const double rss = peak_rss_mb();

  // -- correctness gate ------------------------------------------------
  // First run of each seed: re-synthesis + equivalence. Every later run
  // of the seed (and its traced twin) must repeat it bit for bit.
  const ppg::MultiplierSpec spec = spec16();
  const std::vector<double> targets = synth::default_targets(spec);
  std::vector<const SearchRecord*> first(seeds.size(), nullptr);
  for (const SearchRecord& r : untraced) {
    const std::string tag = std::string(w.name) + " seed " +
                            std::to_string(seeds[r.slot]) + ": ";
    rep.check(r.cost_matches, tag + "reported best_cost is not the cost of "
                                    "the reported design");
    const SearchRecord*& f = first[r.slot];
    if (f == nullptr) {
      f = &r;
      const std::string why =
          check_best_design(spec, targets, r.best_point, r.reported);
      rep.check(why.empty(), tag + why);
      continue;
    }
    rep.check(same_bits(r.best_cost, f->best_cost) &&
                  same_bits(r.hypervolume, f->hypervolume) &&
                  r.stats.unique_evals == f->stats.unique_evals &&
                  r.best_key == f->best_key,
              tag + "repeat differs from the first run of the seed");
  }
  for (const SearchRecord& r : traced) {
    const SearchRecord* f = first[r.slot];
    rep.check(f != nullptr && same_bits(r.best_cost, f->best_cost) &&
                  same_bits(r.hypervolume, f->hypervolume) &&
                  r.stats.unique_evals == f->stats.unique_evals,
              std::string(w.name) + " seed " + std::to_string(seeds[r.slot]) +
                  ": traced run differs from untraced");
    // init + driver self + method self + synthesis + nn + remainder.
    const double nn_s = static_cast<double>(r.delta.nn_time_us) / 1e6;
    const double method_self = r.method_s - r.synth_in_steps_s - nn_s;
    const double sum = r.init_s + r.driver_self_s + method_self +
                       r.synth_in_steps_s + nn_s + r.unattributed_s;
    rep.check(std::abs(sum - r.search_s) <= 1e-3 * r.search_s + 1e-4,
              "layer self times do not add up to the traced search_s");
  }

  // -- metrics ---------------------------------------------------------
  Samples setup, search, job, step, status_us;
  double evals = 0.0;
  for (const SearchRecord& r : untraced) {
    setup.add(r.setup_s);
    search.add(r.search_s);
    job.add(r.job_s);
    for (double ms : r.step_ms) step.add(ms);
    for (double us : r.status_us) status_us.add(us);
    evals += static_cast<double>(r.stats.unique_evals);
  }
  double best = 0.0, hv = 0.0;
  for (const SearchRecord* f : first) {
    best += f->best_cost;
    hv += f->hypervolume;
  }
  best /= static_cast<double>(first.size());
  hv /= static_cast<double>(first.size());

  if (!opts.trace) {
    rep.put("setup_s", setup, setup.median());
    rep.put("search_s", search, search.median());
    rep.put("designs_per_s", evals / search.sum());
    rep.put("step_ms_p50", step, step.percentile(50));
    rep.put("step_ms_p90", step, step.percentile(90));
    rep.put("best_cost", best);
    rep.put("hypervolume", hv);
    rep.put("peak_rss_mb", rss);
    rep.put("jobs_per_s", static_cast<double>(untraced.size()) / window_s);
    rep.put("job_s_p50", job, job.percentile(50));
    rep.put("job_s_p90", job, job.percentile(90));
    rep.put("status_us_p50", status_us, status_us.percentile(50));
    rep.put("status_us_p90", status_us, status_us.percentile(90));
  } else {
    Samples traced_search;
    for (const SearchRecord& r : traced) traced_search.add(r.search_s);
    put_layer_metrics(rep, traced, traced_search.median(), search.median());
    tracer->write_chrome_json(opts.trace_path);
  }

  // Layer mix the workload was chosen for (recorded, not gated).
  Counters mix;
  for (const SearchRecord& r : untraced) mix += r.delta;
  rep.detail["layer_mix"] =
      layer_mix(mix, search.sum(), static_cast<double>(untraced.size()));

  serve::json::Value searches = serve::json::Value::array();
  for (const auto* list : {&untraced, &traced}) {
    for (const SearchRecord& r : *list) {
      serve::json::Value s = serve::json::Value::object();
      s["seed"] = seeds[r.slot];
      s["traced"] = r.traced;
      s["best_cost"] = r.best_cost;
      s["hypervolume"] = r.hypervolume;
      s["evals"] = static_cast<std::uint64_t>(r.stats.unique_evals);
      s["steps"] = r.steps;
      s["search_s"] = r.search_s;
      s["setup_s"] = r.setup_s;
      searches.push_back(s);
    }
  }
  rep.detail["searches"] = searches;
  serve::json::Value wl = serve::json::Value::object();
  wl["method"] = w.method;
  wl["joint"] = w.joint;
  wl["steps"] = w.steps;
  wl["budget"] = static_cast<std::uint64_t>(w.budget);
  wl["distinct_seeds"] = w.distinct;
  wl["env_pool_workers"] = std::string(w.method) == "dqn" ? 1 : 0;
  wl["bits"] = 16;
  rep.detail["workload"] = wl;
  return rep;
}

}  // namespace rlmul::bench
