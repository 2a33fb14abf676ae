#pragma once
// A pool of parallel environments sharing one reward oracle. Owns N
// MultiplierEnvs plus a small *persistent* worker pool that steps them
// concurrently — replacing the per-rollout-step std::thread spawn/join
// the A2C trainer used to pay. DQN and greedy_rollout run on a pool of
// one so every agent observes and steps through the same code path.
//
// The workers are private, not util::ThreadPool::shared(): an env step
// calls DesignEvaluator::evaluate, which fans the per-target sizings
// out to the shared pool and blocks on their futures. Nesting the env
// step itself onto that pool would stack two blocking levels and can
// deadlock a one-worker (CI) configuration; two distinct pools keep
// each strictly one level deep.
//
// Concurrency invariant (no mutex, by construction): step_all submits
// exactly one task per environment, so each MultiplierEnv has a single
// writer at any time; cross-env state lives behind the evaluator's own
// lock. Between step_all calls the caller is the only thread touching
// the envs — observe_batch/masks/trees must not overlap a step_all.

#include <cstdint>
#include <memory>
#include <vector>

#include "rl/env.hpp"
#include "util/thread_pool.hpp"

namespace rlmul::rl {

class EnvPool {
 public:
  EnvPool(synth::DesignEvaluator& evaluator, const EnvConfig& cfg,
          int num_envs);

  int size() const { return static_cast<int>(envs_.size()); }
  MultiplierEnv& env(int i) { return *envs_[static_cast<std::size_t>(i)]; }
  const MultiplierEnv& env(int i) const {
    return *envs_[static_cast<std::size_t>(i)];
  }

  int num_actions() const { return envs_.front()->num_actions(); }
  int stage_pad() const { return envs_.front()->stage_pad(); }

  void reset_all();

  /// Current states of all environments, in pool order.
  std::vector<ct::CompressorTree> trees() const;
  std::vector<ppg::DesignPoint> points() const;

  /// One slab [N, C, columns, stage_pad] over all current states —
  /// identical to encode_batch(trees(), stage_pad()) when the pool's
  /// envs are not joint-searching, and to encode_point_batch otherwise
  /// (C = env(0).num_channels()).
  nt::Tensor observe_batch() const;

  /// Legality masks of all environments, in pool order.
  std::vector<std::vector<std::uint8_t>> masks() const;

  struct StepOutcome {
    double reward = 0.0;
    double cost = 0.0;     ///< cost of the post-step (or post-reset) state
    bool stepped = false;  ///< false when the env was reset instead
  };

  /// Steps env i with actions[i]; a negative action resets that env
  /// (the dead-end convention of the trainers). All envs advance
  /// concurrently on the persistent workers; outcomes are gathered in
  /// pool order, so results are independent of scheduling. Tree-only
  /// envs' post-action trees are submitted up front as one
  /// evaluate_batch — one coalesced sweep warms the cache the env
  /// steps then hit, instead of N racing drains.
  std::vector<StepOutcome> step_all(const std::vector<int>& actions);

 private:
  synth::DesignEvaluator& evaluator_;
  std::vector<std::unique_ptr<MultiplierEnv>> envs_;
  util::ThreadPool pool_;
};

}  // namespace rlmul::rl
