#pragma once
// Snapshots of util::perf_counters() and the per-layer metrics derived
// from them, shared by every workload of rlmul-bench.

#include <cstdint>

#include "bench.hpp"

namespace rlmul::bench {

/// Plain copy of util::PerfCounters (same field names).
struct Counters {
  std::uint64_t unique_evals = 0, cache_hits = 0, inflight_waits = 0,
                synth_calls = 0, netlists_built = 0, cpa_variants_built = 0,
                netlists_reused = 0, sta_full_updates = 0,
                sta_incremental_updates = 0, sta_gates_retimed = 0,
                nn_time_us = 0, gemm_time_us = 0, nn_flops = 0,
                eval_batches = 0, eval_batched_designs = 0,
                eval_batch_coalesce_wait_us = 0, dsdb_hits = 0,
                dsdb_misses = 0, dsdb_appends = 0, dsdb_flushes = 0,
                eval_delta_hits = 0, eval_delta_fallbacks = 0,
                eval_delta_fresh_gates = 0, eval_delta_total_gates = 0;

  /// The process-wide counters now.
  static Counters now();
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// num / den, 0 when den is 0.
double ratio(double num, double den);

/// The synth / netlist / sta / nn / dsdb metrics from counter totals
/// over `n` searches (or jobs), as means per search. `evals`, `hits`
/// and `waits` are the unique evaluations, cache hits and in-flight
/// waits over the same searches.
void put_counter_metrics(Report& rep, const Counters& total, double n,
                         double evals, double hits, double waits);

/// The layer-mix facts a workload was chosen for (recorded, not
/// gated): nn.share of `search_s` (summed search time), mean batch
/// size, delta hits per search.
serve::json::Value layer_mix(const Counters& total, double search_s,
                             double n);

}  // namespace rlmul::bench
