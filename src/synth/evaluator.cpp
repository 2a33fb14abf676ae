#include "synth/evaluator.hpp"

#include <future>
#include <stdexcept>
#include <utility>

#include "sta/batch_sweep.hpp"
#include "synth/batch_eval.hpp"
#include "util/perf_counters.hpp"

namespace rlmul::synth {

std::vector<double> default_targets(const ppg::MultiplierSpec& spec, int n) {
  const ct::CompressorTree wallace = ppg::initial_tree(spec);
  // Fastest achievable: synthesize maximally tight; slowest useful:
  // fully relaxed minimum-area synthesis. One prepared design serves
  // both probes (same numbers as two synthesize_design calls).
  const PreparedDesign prep(spec, wallace);
  const SynthesisResult tight = prep.synthesize(0.01);
  const SynthesisResult loose = prep.synthesize(1e9);
  const double lo = tight.delay_ns * 0.95;
  const double hi = loose.delay_ns * 1.05;
  std::vector<double> targets;
  for (int i = 0; i < n; ++i) {
    const double f = n == 1 ? 0.5 : static_cast<double>(i) / (n - 1);
    targets.push_back(lo + f * (hi - lo));
  }
  return targets;
}

DesignEvaluator::DesignEvaluator(ppg::MultiplierSpec spec,
                                 std::vector<double> targets,
                                 const EvaluatorOptions& opts)
    : spec_(spec), targets_(std::move(targets)), opts_(opts) {
  // The batched pipeline sizes one lane per target.
  if (targets_.size() > static_cast<std::size_t>(sta::BatchTimer::kMaxLanes)) {
    throw std::invalid_argument(
        "DesignEvaluator: more delay targets than BatchTimer lanes (" +
        std::to_string(sta::BatchTimer::kMaxLanes) + ")");
  }
  if (opts_.synth_threads > 0) {
    owned_pool_ = std::make_unique<util::ThreadPool>(opts_.synth_threads);
    pool_ = owned_pool_.get();
  } else {
    pool_ = &util::ThreadPool::shared();
  }
  if (targets_.empty()) targets_ = default_targets(spec_);
  BatchOptions bopts;
  bopts.verify_functionality = opts_.verify_functionality;
  bopts.verify_vectors = opts_.verify_vectors;
  batch_eval_ = std::make_unique<BatchEvaluator>(spec_, targets_, bopts);
  const DesignEval ref = evaluate(ppg::initial_tree(spec_));
  ref_area_ = ref.sum_area > 0.0 ? ref.sum_area : 1.0;
  ref_delay_ = ref.sum_delay > 0.0 ? ref.sum_delay : 1.0;
}

DesignEvaluator::~DesignEvaluator() = default;

std::shared_ptr<const PreparedDesign> DesignEvaluator::parent_get(
    const std::string& key) const {
  if (key.empty()) return nullptr;
  util::LockGuard lock(parents_mu_);
  auto it = parents_.find(key);
  if (it == parents_.end()) return nullptr;
  it->second.tick = ++parents_tick_;
  return it->second.prep;
}

void DesignEvaluator::parent_put(
    const std::string& key, std::shared_ptr<const PreparedDesign> prep) const {
  util::LockGuard lock(parents_mu_);
  auto [it, inserted] = parents_.try_emplace(key);
  it->second.prep = std::move(prep);
  it->second.tick = ++parents_tick_;
  if (parents_.size() > kParents) {
    auto victim = parents_.begin();
    for (auto cur = parents_.begin(); cur != parents_.end(); ++cur) {
      if (cur->second.tick < victim->second.tick) victim = cur;
    }
    parents_.erase(victim);
  }
}

DesignEval DesignEvaluator::compute_point(const ppg::DesignPoint& point,
                                          const std::string& key,
                                          const ParentHint& hint) const {
  // Menu points with only a PPG change walk the same kAllCpaKinds sweep
  // plain designs do, under the toggled spec.
  const ppg::MultiplierSpec resolved = point.resolved_spec(spec_);
  auto parent = parent_get(hint.key);
  auto prep =
      point.cpa_pinned()
          ? std::make_shared<PreparedDesign>(PreparedDesign::DeltaMode{},
                                             resolved, point.tree, point.cpa,
                                             std::move(parent))
          : std::make_shared<PreparedDesign>(PreparedDesign::DeltaMode{},
                                             resolved, point.tree,
                                             std::move(parent));
  if (opts_.verify_functionality) {
    verify_equivalence(prep->netlist_at(0), resolved, key,
                       opts_.verify_vectors);
  }
  // One pool task per delay constraint, gathered in target order, so
  // the sums are bit-identical to a serial evaluation. Wait for every
  // task before the first get(): a throwing target must not unwind
  // while siblings still use `prep`.
  std::vector<std::future<SynthesisResult>> futs;
  futs.reserve(targets_.size());
  for (double target : targets_) {
    futs.push_back(
        pool_->submit([prep, target] { return prep->synthesize(target); }));
  }
  for (auto& f : futs) f.wait();
  std::vector<SynthesisResult> results;
  for (auto& f : futs) results.push_back(f.get());
  auto& counters = util::perf_counters();
  if (prep->used_parent()) {
    counters.eval_delta_hits.fetch_add(1, std::memory_order_relaxed);
  } else if (!hint.key.empty()) {
    counters.eval_delta_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  // Seal (forces every menu entry, drops the parent chain) before
  // publication, so concurrent children of this design only ever read
  // immutable state.
  prep->seal_for_retention();
  parent_put(key, prep);
  DesignEval eval;
  for (const SynthesisResult& res : results) {
    eval.sum_area += res.area_um2;
    eval.sum_delay += res.delay_ns;
    eval.sum_power += res.power_mw;
    eval.per_target.push_back(res);
  }
  return eval;
}

std::size_t DesignEvaluator::install_locked(const std::string& key,
                                            const ct::CompressorTree& tree,
                                            const DesignEval& eval,
                                            const ppg::DesignPoint* point) {
  auto [it, inserted] = index_.emplace(key, designs_.size());
  if (inserted) {
    designs_.push_back(tree);
    if (point != nullptr) {
      points_.push_back(*point);
    } else {
      ppg::DesignPoint plain;
      plain.ppg = spec_.ppg;
      plain.tree = tree;
      points_.push_back(std::move(plain));
    }
    evals_.push_back(eval);
    for (const SynthesisResult& res : eval.per_target) {
      frontier_.insert(
          pareto::Point{res.area_um2, res.delay_ns, designs_.size() - 1});
    }
  }
  return it->second;
}

DesignEval DesignEvaluator::evaluate(const ppg::DesignPoint& point,
                                     const ParentHint& hint) {
  if (point.ppg == spec_.ppg && !point.cpa_pinned()) {
    // Plain point: exactly the tree contract — same keys, same
    // batching/coalescing, bit-identical results and accounting.
    return evaluate(point.tree);
  }
  return evaluate_extended(point, point.key(spec_), hint);
}

DesignEval DesignEvaluator::evaluate_extended(const ppg::DesignPoint& point,
                                              const std::string& key,
                                              const ParentHint& hint) {
  // Extended points never enter the pending_/drain machinery (the SoA
  // batch pipeline is built per spec and per menu); they run per call
  // with the same in-flight dedup on the extended key.
  {
    util::UniqueLock lock(mu_);
    for (;;) {
      auto it = index_.find(key);
      if (it != index_.end()) {
        {
          util::LockGuard slock(stats_mu_);
          ++stats_.cache_hits;
        }
        util::perf_counters().cache_hits.fetch_add(1,
                                                   std::memory_order_relaxed);
        return evals_[it->second];
      }
      if (in_flight_.find(key) == in_flight_.end()) break;
      // Another worker is synthesizing this exact point right now: wait
      // for its result instead of duplicating the synthesis.
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.inflight_waits;
      }
      util::perf_counters().inflight_waits.fetch_add(
          1, std::memory_order_relaxed);
      cv_.wait(lock);
    }
    in_flight_.insert(key);
  }

  // A cross-run cache hit replaces synthesis entirely: the stored
  // evaluation was produced under the same spec/target contract, so it
  // is bit-identical to what compute_point() would return — and it is
  // free (no budget charge, no unique_evals bump).
  if (opts_.external_cache != nullptr) {
    DesignEval stored;
    if (opts_.external_cache->lookup_point(key, point, stored)) {
      util::LockGuard lock(mu_);
      in_flight_.erase(key);
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.external_hits;
      }
      const std::size_t idx = install_locked(key, point.tree, stored, &point);
      cv_.notify_all();
      return evals_[idx];
    }
  }

  // Synthesize outside the lock so workers on *different* points
  // overlap.
  DesignEval eval;
  try {
    eval = compute_point(point, key, hint);
  } catch (...) {
    util::LockGuard lock(mu_);
    in_flight_.erase(key);
    cv_.notify_all();
    throw;
  }

  std::size_t idx = 0;
  {
    util::LockGuard lock(mu_);
    in_flight_.erase(key);
    const std::size_t before = designs_.size();
    idx = install_locked(key, point.tree, eval, &point);
    if (designs_.size() > before) {
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.unique_evals;
      }
      util::perf_counters().unique_evals.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  // Offer the fresh result to the cross-run cache outside the mutex —
  // the store may journal to disk and must not serialize evaluations.
  if (opts_.external_cache != nullptr) {
    opts_.external_cache->store_point(key, point, eval);
  }
  return eval_of(idx);
}

// drain_locked releases and reacquires the caller's UniqueLock around
// the batched synthesis, which the thread-safety analysis cannot
// follow; every access to mu_-guarded state below happens while the
// lock is held (verified by the tsan-labeled batch tests).
void DesignEvaluator::drain_locked(util::UniqueLock& lock,
                                   const std::string& my_key,
                                   std::unordered_set<std::string>* resolved)
    RLMUL_NO_THREAD_SAFETY_ANALYSIS {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> keys;
  std::vector<ct::CompressorTree> trees;
  std::uint64_t wait_us = 0;
  auto take = [&](const std::string& k) {
    auto it = pending_.find(k);
    keys.push_back(k);
    trees.push_back(std::move(it->second.tree));
    wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - it->second.since)
            .count());
    pending_.erase(it);
    in_flight_.insert(k);
  };
  take(my_key);
  while (static_cast<int>(keys.size()) < kBatch && !pending_order_.empty()) {
    const std::string k = std::move(pending_order_.front());
    pending_order_.pop_front();
    if (pending_.find(k) == pending_.end()) continue;  // stale entry
    take(k);
  }
  lock.unlock();

  // External-cache hits replace synthesis and charge nothing, exactly
  // as on the extended-point route.
  std::vector<char> external(keys.size(), 0);
  std::vector<DesignEval> stored(keys.size());
  std::vector<std::size_t> miss;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (opts_.external_cache != nullptr &&
        opts_.external_cache->lookup(keys[i], trees[i], stored[i])) {
      external[i] = 1;
    } else {
      miss.push_back(i);
    }
  }

  std::vector<BatchResult> computed;
  if (!miss.empty()) {
    std::vector<ct::CompressorTree> miss_trees;
    std::vector<std::string> miss_keys;
    miss_trees.reserve(miss.size());
    miss_keys.reserve(miss.size());
    for (std::size_t idx : miss) {
      miss_trees.push_back(trees[idx]);
      miss_keys.push_back(keys[idx]);
    }
    computed = batch_eval_->evaluate(miss_trees, miss_keys, *pool_);
  }

  auto& counters = util::perf_counters();
  counters.eval_batches.fetch_add(1, std::memory_order_relaxed);
  counters.eval_batched_designs.fetch_add(keys.size(),
                                          std::memory_order_relaxed);
  counters.eval_batch_coalesce_wait_us.fetch_add(wait_us,
                                                 std::memory_order_relaxed);
  {
    util::LockGuard slock(stats_mu_);
    ++stats_.eval_batches;
    stats_.eval_batched_designs += keys.size();
    stats_.eval_batch_coalesce_us += wait_us;
  }

  lock.lock();
  std::exception_ptr my_error;
  // Fresh successes to offer to the cross-run cache once mu_ drops.
  std::vector<std::size_t> fresh;
  std::vector<DesignEval> fresh_evals;
  for (const std::string& k : keys) in_flight_.erase(k);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (external[i] == 0) continue;
    {
      util::LockGuard slock(stats_mu_);
      ++stats_.external_hits;
    }
    install_locked(keys[i], trees[i], stored[i]);
    if (resolved != nullptr) resolved->insert(keys[i]);
  }
  for (std::size_t j = 0; j < miss.size(); ++j) {
    const std::size_t idx = miss[j];
    BatchResult& br = computed[j];
    if (br.error != nullptr) {
      // The drainer throws its own failure; other failed designs stay
      // unresolved — their waiters re-enqueue and hit the error in a
      // drain of their own.
      if (keys[idx] == my_key) my_error = br.error;
      continue;
    }
    DesignEval eval;
    for (const SynthesisResult& res : br.per_target) {
      eval.sum_area += res.area_um2;
      eval.sum_delay += res.delay_ns;
      eval.sum_power += res.power_mw;
      eval.per_target.push_back(res);
    }
    const std::size_t before = designs_.size();
    install_locked(keys[idx], trees[idx], eval);
    if (designs_.size() > before) {
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.unique_evals;
      }
      counters.unique_evals.fetch_add(1, std::memory_order_relaxed);
      if (opts_.external_cache != nullptr) {
        fresh.push_back(idx);
        fresh_evals.push_back(std::move(eval));
      }
    }
    if (resolved != nullptr) resolved->insert(keys[idx]);
  }
  draining_ = false;
  cv_.notify_all();

  if (!fresh.empty()) {
    lock.unlock();
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      opts_.external_cache->store(keys[fresh[j]], trees[fresh[j]],
                                  fresh_evals[j]);
    }
    lock.lock();
  }
  if (my_error != nullptr) std::rethrow_exception(my_error);
}

DesignEval DesignEvaluator::evaluate(const ct::CompressorTree& tree) {
  const std::string key = tree.key();
  std::unordered_set<std::string> resolved;
  util::UniqueLock lock(mu_);
  for (;;) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (resolved.count(key) != 0) {
        // This caller's own drain produced the result — accounted as
        // the computing worker (no cache-hit bump).
        return evals_[it->second];
      }
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.cache_hits;
      }
      util::perf_counters().cache_hits.fetch_add(1, std::memory_order_relaxed);
      return evals_[it->second];
    }
    if (in_flight_.count(key) != 0) {
      // A drain in progress covers this key: wait for it.
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.inflight_waits;
      }
      util::perf_counters().inflight_waits.fetch_add(
          1, std::memory_order_relaxed);
      cv_.wait(lock);
      continue;
    }
    if (pending_.count(key) == 0) {
      pending_.emplace(key,
                       Pending{tree, std::chrono::steady_clock::now()});
      pending_order_.push_back(key);
    }
    if (!draining_) {
      draining_ = true;
      drain_locked(lock, key, &resolved);
      continue;
    }
    // Another caller is draining a batch that may not include this
    // key; re-check once it finishes.
    cv_.wait(lock);
  }
}

std::vector<DesignEval> DesignEvaluator::evaluate_batch(
    const std::vector<ct::CompressorTree>& trees) {
  std::vector<DesignEval> out;
  out.reserve(trees.size());
  std::vector<std::string> keys;
  keys.reserve(trees.size());
  for (const auto& tree : trees) keys.push_back(tree.key());

  // Keys this call synthesized itself (as drainer): their first
  // occurrence below is accounted like the computing worker, not like
  // a cache hit — the same totals K sequential evaluate() calls give.
  std::unordered_set<std::string> resolved;
  util::UniqueLock lock(mu_);
  for (;;) {
    bool unresolved = false;
    const std::string* drain_key = nullptr;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (index_.count(keys[i]) != 0) continue;
      unresolved = true;
      if (in_flight_.count(keys[i]) != 0) continue;
      if (pending_.count(keys[i]) == 0) {
        pending_.emplace(keys[i],
                         Pending{trees[i], std::chrono::steady_clock::now()});
        pending_order_.push_back(keys[i]);
      }
      if (drain_key == nullptr) drain_key = &keys[i];
    }
    if (!unresolved) break;
    if (drain_key != nullptr && !draining_) {
      draining_ = true;
      drain_locked(lock, *drain_key, &resolved);
      continue;
    }
    // Everything unresolved is either in flight or queued behind an
    // active drain; wait for it to finish and re-check.
    {
      util::LockGuard slock(stats_mu_);
      ++stats_.inflight_waits;
    }
    util::perf_counters().inflight_waits.fetch_add(1,
                                                   std::memory_order_relaxed);
    cv_.wait(lock);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = index_.find(keys[i]);
    auto mine = resolved.find(keys[i]);
    if (mine != resolved.end()) {
      resolved.erase(mine);  // only the first occurrence is "mine"
    } else {
      {
        util::LockGuard slock(stats_mu_);
        ++stats_.cache_hits;
      }
      util::perf_counters().cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    out.push_back(evals_[it->second]);
  }
  return out;
}

std::vector<DesignEval> DesignEvaluator::evaluate_batch(
    const std::vector<ppg::DesignPoint>& points,
    const std::vector<ParentHint>& hints) {
  // Plain points coalesce through one tree batch (one bulk call keeps
  // the SoA batching effective; their hints are moot there); extended
  // points then evaluate per call with their hints. Results come back
  // in input order either way.
  std::vector<ct::CompressorTree> plain_trees;
  std::vector<std::size_t> plain_pos;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].ppg == spec_.ppg && !points[i].cpa_pinned()) {
      plain_trees.push_back(points[i].tree);
      plain_pos.push_back(i);
    }
  }
  std::vector<DesignEval> out(points.size());
  const std::vector<DesignEval> plain = evaluate_batch(plain_trees);
  for (std::size_t j = 0; j < plain_pos.size(); ++j) {
    out[plain_pos[j]] = plain[j];
  }
  std::size_t next_plain = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (next_plain < plain_pos.size() && plain_pos[next_plain] == i) {
      ++next_plain;
      continue;
    }
    out[i] = evaluate_extended(points[i], points[i].key(spec_),
                               i < hints.size() ? hints[i] : ParentHint{});
  }
  return out;
}

bool DesignEvaluator::admit(const ct::CompressorTree& tree,
                            const DesignEval& eval) {
  const std::string key = tree.key();
  util::LockGuard lock(mu_);
  if (index_.count(key) != 0 || in_flight_.count(key) != 0 ||
      pending_.count(key) != 0) {
    return false;
  }
  install_locked(key, tree, eval);
  {
    util::LockGuard slock(stats_mu_);
    ++stats_.admitted;
  }
  return true;
}

double DesignEvaluator::cost(const DesignEval& eval, double w_area,
                             double w_delay) const {
  return w_area * eval.sum_area / ref_area_ +
         w_delay * eval.sum_delay / ref_delay_;
}

std::size_t DesignEvaluator::num_unique_evaluations() const {
  util::LockGuard lock(stats_mu_);
  return stats_.unique_evals;
}

pareto::Front DesignEvaluator::frontier() const {
  util::LockGuard lock(mu_);
  return frontier_;
}

ct::CompressorTree DesignEvaluator::design(std::size_t index) const {
  util::LockGuard lock(mu_);
  return designs_.at(index);
}

ppg::DesignPoint DesignEvaluator::point_of(std::size_t index) const {
  util::LockGuard lock(mu_);
  return points_.at(index);
}

std::size_t DesignEvaluator::num_designs() const {
  util::LockGuard lock(mu_);
  return designs_.size();
}

DesignEval DesignEvaluator::eval_of(std::size_t index) const {
  util::LockGuard lock(mu_);
  return evals_.at(index);
}

DesignEvaluator::Stats DesignEvaluator::stats() const {
  util::LockGuard lock(stats_mu_);
  return stats_;
}

}  // namespace rlmul::synth
