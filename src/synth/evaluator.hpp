#pragma once
// The reward oracle of the framework (Section III-E): evaluates a
// design point under n delay constraints and aggregates the results
// into the Pareto-driven cost
//
//   cost = w_a * sum_i area_i + w_d * sum_i delay_i
//
// (power is dropped from the objective per Section IV-B; it is still
// reported for the Fig 7 correlation study). Evaluations are cached by
// the tree's canonical key and every synthesized (area, delay) point
// feeds a global Pareto archive, which is what the paper plots in
// Figs 9-11. Thread-safe: the parallel A2C workers of RL-MUL-E share
// one evaluator, and concurrent requests for the same tree are
// deduplicated — one worker synthesizes, the rest wait on the result.
//
// A design takes one of two routes, chosen by the design alone:
//  * plain designs (a tree, or a point with the spec's PPG family and
//    no pinned CPA) coalesce into the batched SoA pipeline
//    (BatchEvaluator + sta::BatchTimer), its delay targets sized as
//    lanes of one sweep per CPA architecture;
//  * extended points (a PPG toggle or a pinned CPA) run per call in
//    delta mode: a retained parent named by a ParentHint lets the
//    design rebuild only the changed cone and warm-start its timing,
//    and the targets fan out to a thread pool.
// Both are bit-identical per double to the reference pipelines
// (synthesize_design / synthesize_design_legacy).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ct/compressor_tree.hpp"
#include "pareto/pareto.hpp"
#include "ppg/ppg.hpp"
#include "synth/synth.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace rlmul::synth {

/// Picks n target delays spanning the spec's achievable range
/// (tight prefix-adder synthesis to relaxed ripple synthesis of the
/// Wallace-initialized design).
std::vector<double> default_targets(const ppg::MultiplierSpec& spec,
                                    int n = 4);

struct DesignEval {
  std::vector<SynthesisResult> per_target;
  double sum_area = 0.0;
  double sum_delay = 0.0;
  double sum_power = 0.0;
};

/// Optional external (typically persistent, cross-run) evaluation
/// cache. The evaluator consults it before synthesizing a new tree and
/// offers every freshly synthesized result back. Implementations must
/// be thread-safe and must only return evaluations produced under the
/// same spec/target contract (see dsdb::Fingerprint). `key` is always
/// `tree.key()` on the tree entry points. The DesignPoint overloads
/// carry the full point (PPG family + optional pinned CPA graph); the
/// defaults decline/drop so tree-only caches keep working unchanged —
/// point evaluations then simply miss.
class EvalCache {
 public:
  virtual ~EvalCache() = default;
  virtual bool lookup(const std::string& key, const ct::CompressorTree& tree,
                      DesignEval& out) = 0;
  virtual void store(const std::string& key, const ct::CompressorTree& tree,
                     const DesignEval& eval) = 0;
  /// `key` is DesignPoint::key(spec) — tree key + cpa/ppg markers.
  virtual bool lookup_point(const std::string& key,
                            const ppg::DesignPoint& point, DesignEval& out) {
    (void)key;
    (void)point;
    (void)out;
    return false;
  }
  virtual void store_point(const std::string& key,
                           const ppg::DesignPoint& point,
                           const DesignEval& eval) {
    (void)key;
    (void)point;
    (void)eval;
  }
};

struct EvaluatorOptions {
  /// Run the equivalence gate (the paper's Yosys+ABC `cec` step) on
  /// every new design before scoring it; throws std::runtime_error on
  /// a functional mismatch. Costs one randomized simulation per unique
  /// design.
  bool verify_functionality = false;
  std::uint64_t verify_vectors = 2048;
  /// >0: this evaluator owns a private pool of that many workers.
  /// 0: use the process-wide shared pool (RLMUL_SYNTH_THREADS).
  int synth_threads = 0;
  /// Cross-run cache (non-owning; must outlive the evaluator). Results
  /// served from it do NOT count as unique evaluations — the search
  /// budget is charged only for synthesis actually run.
  EvalCache* external_cache = nullptr;
};

class BatchEvaluator;

/// Caller-supplied search-trajectory context for delta evaluation: the
/// evaluation key (point.key(spec)) of the design the new one was
/// derived from by a single move. An empty key means "no parent"
/// (scratch evaluation). Purely an optimization hint — results are
/// bit-identical with or without it, and a hint whose parent state was
/// evicted or is incompatible just falls back to a scratch build
/// (counted in eval_delta_fallbacks).
struct ParentHint {
  std::string key;
};

class DesignEvaluator {
 public:
  /// Empty `targets` selects default_targets(spec). Throws
  /// std::invalid_argument for more targets than the batched pipeline
  /// has lanes (sta::BatchTimer::kMaxLanes).
  explicit DesignEvaluator(ppg::MultiplierSpec spec,
                           std::vector<double> targets = {},
                           const EvaluatorOptions& opts = {});
  ~DesignEvaluator();

  const ppg::MultiplierSpec& spec() const { return spec_; }
  const std::vector<double>& targets() const { return targets_; }

  /// Synthesizes (or returns the cached result for) a tree. Concurrent
  /// calls coalesce: the tree joins the pending queue and either this
  /// caller drains a batch or it waits for the drain that covers it.
  DesignEval evaluate(const ct::CompressorTree& tree);

  /// Evaluates a full design point. A plain point (spec's PPG family,
  /// no pinned CPA) routes through evaluate(tree) — same keys, same
  /// batching, bit-identical results — and ignores `hint`. An extended
  /// point (PPG toggle or pinned CPA) runs per call under an extended
  /// cache key; `hint` names the evaluated design it is one move away
  /// from, whose retained state lets synthesis rebuild only the
  /// changed cone (the parent LRU keeps the last 16 extended designs).
  /// `point.tree` must have been built against
  /// point.resolved_spec(spec()).
  DesignEval evaluate(const ppg::DesignPoint& point,
                      const ParentHint& hint = {});

  /// Evaluates many trees at once (results in input order) — the bulk
  /// entry SA populations, EnvPool rollouts and warm-replay use so one
  /// caller fills a whole batch by itself. Equivalent to calling
  /// evaluate() per tree (same caching, budget and dsdb behavior);
  /// throws the first failing design's error.
  std::vector<DesignEval> evaluate_batch(
      const std::vector<ct::CompressorTree>& trees);

  /// Point-wise bulk entry: plain points coalesce through the tree
  /// batch, then extended points evaluate per call in input order,
  /// each with its hint (`hints` empty or sized like `points`; missing
  /// or empty entries mean no parent).
  std::vector<DesignEval> evaluate_batch(
      const std::vector<ppg::DesignPoint>& points,
      const std::vector<ParentHint>& hints = {});

  /// Weighted, normalized cost: the Wallace-initial design costs
  /// exactly w_area + w_delay, so weights compose across specs.
  double cost(const DesignEval& eval, double w_area, double w_delay) const;

  /// Unique designs synthesized *by this process* so far (the paper's
  /// search budget is counted in EDA-tool calls). Results admitted or
  /// served from an external cache are free and not counted here.
  std::size_t num_unique_evaluations() const;

  /// Installs a known-good (tree, eval) pair into the in-memory cache
  /// and Pareto archive without synthesizing and without charging the
  /// budget — the warm-start entry point. Returns false if the key is
  /// already cached or currently being synthesized.
  bool admit(const ct::CompressorTree& tree, const DesignEval& eval);

  /// Non-dominated (area, delay) points across every design and target
  /// synthesized through this evaluator. Payload = design index.
  pareto::Front frontier() const;

  /// Design for a frontier payload. (By value: the store may be
  /// appended to concurrently by other workers.)
  ct::CompressorTree design(std::size_t index) const;
  /// Full design point for a frontier payload — plain evaluations come
  /// back as {spec().ppg, tree, no pinned CPA}.
  ppg::DesignPoint point_of(std::size_t index) const;
  std::size_t num_designs() const;

  /// Per-design results (for table-style reporting).
  DesignEval eval_of(std::size_t index) const;

  /// Per-evaluator throughput counters (process-wide totals live in
  /// util::perf_counters()).
  struct Stats {
    std::size_t unique_evals = 0;    ///< designs synthesized
    std::size_t cache_hits = 0;      ///< served from the in-memory cache
    std::size_t inflight_waits = 0;  ///< duplicate work deduplicated
    std::size_t external_hits = 0;   ///< served from the external cache
    std::size_t admitted = 0;        ///< warm-start records admitted
    std::size_t eval_batches = 0;    ///< batched dispatches drained
    std::size_t eval_batched_designs = 0;  ///< designs across all batches
    std::size_t eval_batch_coalesce_us = 0;  ///< summed pending-queue wait
  };
  Stats stats() const;

 private:
  /// A design awaiting the next batched dispatch.
  struct Pending {
    ct::CompressorTree tree;
    std::chrono::steady_clock::time_point since;
  };

  /// Most designs one batched dispatch drains.
  static constexpr int kBatch = 16;
  /// Sealed parents the delta LRU retains.
  static constexpr std::size_t kParents = 16;

  /// Synthesizes an extended point in delta mode: prepares the
  /// resolved design against the hinted parent, runs the targets on
  /// the pool, then seals the design and retains it in the parent LRU
  /// under `key`.
  DesignEval compute_point(const ppg::DesignPoint& point,
                           const std::string& key,
                           const ParentHint& hint) const;
  /// Per-call evaluation of an extended point under `key`: in-flight
  /// dedup, external cache, compute_point and accounting.
  DesignEval evaluate_extended(const ppg::DesignPoint& point,
                               const std::string& key,
                               const ParentHint& hint);
  /// Parent LRU (delta evaluation): sealed prepared designs of recent
  /// evaluations, keyed by their evaluation key.
  std::shared_ptr<const PreparedDesign> parent_get(
      const std::string& key) const;
  void parent_put(const std::string& key,
                  std::shared_ptr<const PreparedDesign> prep) const;
  /// Pulls up to kBatch pending designs (my_key first), runs them as
  /// one batched dispatch with mu_ released, installs the results and
  /// wakes every waiter. Keys this drain resolved are added to
  /// `resolved` when non-null. Enter with `lock` held and draining_
  /// set; returns with `lock` held and draining_ clear. Throws
  /// my_key's own failure (other failures re-enqueue via their
  /// waiters).
  void drain_locked(util::UniqueLock& lock, const std::string& my_key,
                    std::unordered_set<std::string>* resolved);
  /// Installs into index_/designs_/points_/evals_/frontier_; caller
  /// holds mu_. `point` is null for plain tree evaluations.
  std::size_t install_locked(const std::string& key,
                             const ct::CompressorTree& tree,
                             const DesignEval& eval,
                             const ppg::DesignPoint* point = nullptr)
      RLMUL_REQUIRES(mu_);

  ppg::MultiplierSpec spec_;
  std::vector<double> targets_;
  EvaluatorOptions opts_;
  double ref_area_ = 1.0;
  double ref_delay_ = 1.0;

  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<BatchEvaluator> batch_eval_;

  mutable util::Mutex mu_;
  util::CondVar cv_;  ///< signals drain/in-flight completion; pairs mu_
  std::unordered_set<std::string> in_flight_ RLMUL_GUARDED_BY(mu_);
  /// Designs queued for the next batched dispatch: FIFO key order plus
  /// the tree + enqueue time per key. Keys move pending -> in_flight_
  /// when a drain picks them up. pending_order_ may hold stale keys
  /// (already drained); drains skip entries absent from pending_.
  std::unordered_map<std::string, Pending> pending_ RLMUL_GUARDED_BY(mu_);
  std::deque<std::string> pending_order_ RLMUL_GUARDED_BY(mu_);
  bool draining_ RLMUL_GUARDED_BY(mu_) = false;
  std::unordered_map<std::string, std::size_t> index_ RLMUL_GUARDED_BY(mu_);
  std::vector<ct::CompressorTree> designs_ RLMUL_GUARDED_BY(mu_);
  /// Aligned with designs_: the full point of each evaluation (plain
  /// tree evaluations store {spec_.ppg, tree, no pinned CPA}).
  std::vector<ppg::DesignPoint> points_ RLMUL_GUARDED_BY(mu_);
  std::vector<DesignEval> evals_ RLMUL_GUARDED_BY(mu_);
  pareto::Front frontier_ RLMUL_GUARDED_BY(mu_);

  /// Leaf lock for the throughput counters: batch drains bump them
  /// both inside and outside mu_'s critical sections, so they get
  /// their own mutex (lock order: mu_ before stats_mu_, never the
  /// reverse).
  mutable util::Mutex stats_mu_;
  Stats stats_ RLMUL_GUARDED_BY(stats_mu_);

  /// Leaf lock for the delta-parent LRU (same rank as stats_mu_: never
  /// taken with another lock held inside, and compute_point() runs
  /// outside mu_). Values are sealed immutable PreparedDesigns, so
  /// readers share them freely once the shared_ptr is out.
  struct ParentSlot {
    std::shared_ptr<const PreparedDesign> prep;
    std::uint64_t tick = 0;
  };
  mutable util::Mutex parents_mu_;
  mutable std::unordered_map<std::string, ParentSlot> parents_
      RLMUL_GUARDED_BY(parents_mu_);
  mutable std::uint64_t parents_tick_ RLMUL_GUARDED_BY(parents_mu_) = 0;
};

}  // namespace rlmul::synth
