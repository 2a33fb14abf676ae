#include "counters.hpp"

#include <atomic>

#include "util/perf_counters.hpp"

namespace rlmul::bench {

namespace {

using Field = std::uint64_t Counters::*;
using Source = std::atomic<std::uint64_t> util::PerfCounters::*;

struct Pair {
  Field field;
  Source source;
};

constexpr Pair kFields[] = {
    {&Counters::unique_evals, &util::PerfCounters::unique_evals},
    {&Counters::cache_hits, &util::PerfCounters::cache_hits},
    {&Counters::inflight_waits, &util::PerfCounters::inflight_waits},
    {&Counters::synth_calls, &util::PerfCounters::synth_calls},
    {&Counters::netlists_built, &util::PerfCounters::netlists_built},
    {&Counters::cpa_variants_built, &util::PerfCounters::cpa_variants_built},
    {&Counters::netlists_reused, &util::PerfCounters::netlists_reused},
    {&Counters::sta_full_updates, &util::PerfCounters::sta_full_updates},
    {&Counters::sta_incremental_updates,
     &util::PerfCounters::sta_incremental_updates},
    {&Counters::sta_gates_retimed, &util::PerfCounters::sta_gates_retimed},
    {&Counters::nn_time_us, &util::PerfCounters::nn_time_us},
    {&Counters::gemm_time_us, &util::PerfCounters::gemm_time_us},
    {&Counters::nn_flops, &util::PerfCounters::nn_flops},
    {&Counters::eval_batches, &util::PerfCounters::eval_batches},
    {&Counters::eval_batched_designs,
     &util::PerfCounters::eval_batched_designs},
    {&Counters::eval_batch_coalesce_wait_us,
     &util::PerfCounters::eval_batch_coalesce_wait_us},
    {&Counters::dsdb_hits, &util::PerfCounters::dsdb_hits},
    {&Counters::dsdb_misses, &util::PerfCounters::dsdb_misses},
    {&Counters::dsdb_appends, &util::PerfCounters::dsdb_appends},
    {&Counters::dsdb_flushes, &util::PerfCounters::dsdb_flushes},
    {&Counters::eval_delta_hits, &util::PerfCounters::eval_delta_hits},
    {&Counters::eval_delta_fallbacks,
     &util::PerfCounters::eval_delta_fallbacks},
    {&Counters::eval_delta_fresh_gates,
     &util::PerfCounters::eval_delta_fresh_gates},
    {&Counters::eval_delta_total_gates,
     &util::PerfCounters::eval_delta_total_gates},
};

double d(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

Counters Counters::now() {
  const util::PerfCounters& pc = util::perf_counters();
  Counters c;
  for (const Pair& p : kFields) c.*p.field = (pc.*p.source).load();
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters c;
  for (const Pair& p : kFields) c.*p.field = this->*p.field - o.*p.field;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  for (const Pair& p : kFields) this->*p.field += o.*p.field;
  return *this;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void put_counter_metrics(Report& rep, const Counters& t, double n,
                         double evals, double hits, double waits) {
  const auto per = [n](double v) { return v / n; };
  rep.put("synth.evals", per(evals));
  rep.put("synth.cache_hits", per(hits));
  rep.put("synth.cache_hit_ratio",
          ratio(hits, hits + evals + waits + d(t.dsdb_hits)));
  rep.put("synth.inflight_waits", per(waits));
  rep.put("synth.calls", per(d(t.synth_calls)));
  rep.put("synth.calls_per_eval", ratio(d(t.synth_calls), evals));
  rep.put("synth.batches", per(d(t.eval_batches)));
  rep.put("synth.batch_size_avg",
          ratio(d(t.eval_batched_designs), d(t.eval_batches)));
  rep.put("synth.coalesce_wait_s",
          per(d(t.eval_batch_coalesce_wait_us) / 1e6));
  rep.put("synth.delta_hits", per(d(t.eval_delta_hits)));
  rep.put("synth.delta_fallbacks", per(d(t.eval_delta_fallbacks)));
  rep.put("synth.delta_hit_ratio",
          ratio(d(t.eval_delta_hits),
                d(t.eval_delta_hits + t.eval_delta_fallbacks)));
  rep.put("synth.delta_cone_frac",
          ratio(d(t.eval_delta_fresh_gates), d(t.eval_delta_total_gates)));
  rep.put("netlist.built", per(d(t.netlists_built)));
  rep.put("netlist.cpa_variants_built",
          per(d(t.cpa_variants_built)));
  rep.put("netlist.reused", per(d(t.netlists_reused)));
  rep.put("sta.full_updates", per(d(t.sta_full_updates)));
  rep.put("sta.incremental_updates",
          per(d(t.sta_incremental_updates)));
  rep.put("sta.gates_retimed", per(d(t.sta_gates_retimed)));
  rep.put("sta.gates_retimed_per_eval",
          ratio(d(t.sta_gates_retimed), evals));
  rep.put("nn.time_s", per(d(t.nn_time_us) / 1e6));
  rep.put("nn.flops", per(d(t.nn_flops)));
  rep.put("nn.gflops",
          ratio(d(t.nn_flops) / 1e9, d(t.gemm_time_us) / 1e6));
  rep.put("nt.gemm_s", per(d(t.gemm_time_us) / 1e6));
  rep.put("dsdb.hits", per(d(t.dsdb_hits)));
  rep.put("dsdb.misses", per(d(t.dsdb_misses)));
  rep.put("dsdb.appends", per(d(t.dsdb_appends)));
  rep.put("dsdb.flushes", per(d(t.dsdb_flushes)));
  rep.put("dsdb.hit_ratio",
          ratio(d(t.dsdb_hits), d(t.dsdb_hits + t.dsdb_misses)));
}

serve::json::Value layer_mix(const Counters& t, double search_s, double n) {
  serve::json::Value v = serve::json::Value::object();
  v["nn.share"] = ratio(d(t.nn_time_us) / 1e6, search_s);
  v["synth.batch_size_avg"] =
      ratio(d(t.eval_batched_designs), d(t.eval_batches));
  v["synth.delta_hits"] = ratio(d(t.eval_delta_hits), n);
  return v;
}

}  // namespace rlmul::bench
