#include "rl/env_pool.hpp"

#include <future>
#include <stdexcept>

namespace rlmul::rl {

EnvPool::EnvPool(synth::DesignEvaluator& evaluator, const EnvConfig& cfg,
                 int num_envs)
    : evaluator_(evaluator), pool_(num_envs) {
  if (num_envs < 1) throw std::invalid_argument("EnvPool: num_envs < 1");
  for (int i = 0; i < num_envs; ++i) {
    envs_.push_back(std::make_unique<MultiplierEnv>(evaluator, cfg));
  }
}

void EnvPool::reset_all() {
  for (auto& env : envs_) env->reset();
}

std::vector<ct::CompressorTree> EnvPool::trees() const {
  std::vector<ct::CompressorTree> out;
  out.reserve(envs_.size());
  for (const auto& env : envs_) out.push_back(env->tree());
  return out;
}

std::vector<ppg::DesignPoint> EnvPool::points() const {
  std::vector<ppg::DesignPoint> out;
  out.reserve(envs_.size());
  for (const auto& env : envs_) out.push_back(env->point());
  return out;
}

nt::Tensor EnvPool::observe_batch() const {
  const MultiplierEnv& front = *envs_.front();
  if (!front.joint_search()) return encode_batch(trees(), stage_pad());
  return encode_point_batch(points(), stage_pad(), front.searches_cpa(),
                            front.searches_ppg());
}

std::vector<std::vector<std::uint8_t>> EnvPool::masks() const {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(envs_.size());
  for (const auto& env : envs_) out.push_back(env->mask());
  return out;
}

std::vector<EnvPool::StepOutcome> EnvPool::step_all(
    const std::vector<int>& actions) {
  if (actions.size() != envs_.size()) {
    throw std::invalid_argument("EnvPool::step_all: action count mismatch");
  }
  // Prefetch: evaluate every post-action tree as one coalesced batch
  // before the env tasks run. The tasks then resolve from the cache, so
  // rewards and env trajectories are unchanged — the synthesis just
  // happened in shared sweeps instead of N separate drains racing on
  // the evaluator queue.
  std::vector<ct::CompressorTree> next;
  next.reserve(envs_.size());
  for (std::size_t e = 0; e < envs_.size(); ++e) {
    if (actions[e] < 0) continue;  // reset, no evaluation needed
    // Joint-search envs evaluate full design points (pinned CPA /
    // non-default PPG) on the per-call delta route, hinted with their
    // pre-move state — a plain-tree prefetch would warm the wrong
    // cache key.
    if (envs_[e]->joint_search()) continue;
    const ct::Action action = ct::action_from_index(actions[e]);
    if (!ct::action_applicable(envs_[e]->tree(), action)) continue;
    next.push_back(ct::apply_action(envs_[e]->tree(), action));
  }
  if (!next.empty()) evaluator_.evaluate_batch(next);
  std::vector<std::future<StepOutcome>> futs;
  futs.reserve(envs_.size());
  for (std::size_t e = 0; e < envs_.size(); ++e) {
    MultiplierEnv* env = envs_[e].get();
    const int action = actions[e];
    futs.push_back(pool_.submit([env, action]() {
      StepOutcome out;
      if (action >= 0) {
        const auto sr = env->step(action);
        out.reward = sr.reward;
        out.cost = sr.cost;
        out.stepped = true;
      } else {
        env->reset();  // dead end under pruning
        out.cost = env->current_cost();
      }
      return out;
    }));
  }
  std::vector<StepOutcome> out;
  out.reserve(envs_.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

}  // namespace rlmul::rl
