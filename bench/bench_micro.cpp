// Micro-benchmarks (google-benchmark) for the substrate hot paths: the
// synthesis loop that the RL reward calls thousands of times, the STA
// sweep, the logic simulator, and the agent network forward/backward.
//
// Exits by printing one `RLMUL_COUNTERS key=value ...` line (where the
// synthesis calls went: netlist reuse, incremental vs full STA, cache
// hits) — the contract tests/smoke_bench_micro.sh checks in CI.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"

#include "netlist/cell_library.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/resnet.hpp"
#include "nt/gemm.hpp"
#include "ppg/ppg.hpp"
#include "prefix/prefix_graph.hpp"
#include "rl/env.hpp"
#include "rl/env_pool.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "synth/evaluator.hpp"
#include "synth/synth.hpp"
#include "util/build_info.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"

namespace {

using namespace rlmul;

void BM_BuildMultiplier(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  const auto tree = ppg::initial_tree(spec);
  for (auto _ : state) {
    auto nl = ppg::build_multiplier(spec, tree,
                                    netlist::CpaKind::kRippleCarry);
    benchmark::DoNotOptimize(nl.num_gates());
  }
}
BENCHMARK(BM_BuildMultiplier)->Arg(8)->Arg(16);

void BM_Sta(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  const auto nl = ppg::build_multiplier(spec, ppg::initial_tree(spec),
                                        netlist::CpaKind::kRippleCarry);
  const auto& lib = netlist::CellLibrary::nangate45();
  for (auto _ : state) {
    const auto rep = sta::analyze(nl, lib);
    benchmark::DoNotOptimize(rep.critical_ps);
  }
}
BENCHMARK(BM_Sta)->Arg(8)->Arg(16);

void BM_SynthesizeDesign(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  const auto tree = ppg::initial_tree(spec);
  for (auto _ : state) {
    const auto res = synth::synthesize_design(spec, tree, 0.8);
    benchmark::DoNotOptimize(res.area_um2);
  }
}
BENCHMARK(BM_SynthesizeDesign)->Arg(8)->Arg(16);

void BM_Simulate64Vectors(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  const auto nl = ppg::build_multiplier(spec, ppg::initial_tree(spec),
                                        netlist::CpaKind::kRippleCarry);
  sim::Simulator simulator(nl);
  util::Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < simulator.num_inputs(); ++i) {
      simulator.set_input(i, rng.next());
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.output(0));
  }
}
BENCHMARK(BM_Simulate64Vectors)->Arg(8)->Arg(16);

// The reward-oracle hot loop: evaluating a never-seen-before design
// under the full multi-constraint target set. Arg0 = operand bits.
void BM_EvaluateUniqueDesign(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  // Fixed targets so no time is spent probing the delay range inside
  // the measurement.
  const std::vector<double> targets = synth::default_targets(spec);
  // Pool of unique random-walk trees (deduped by canonical key); the
  // evaluator is rebuilt — outside the timing — when the pool wraps so
  // every timed evaluate() is a cache miss on a unique design.
  auto pool = bench::random_trees(spec, 48, 6, 42);
  {
    std::set<std::string> seen{ppg::initial_tree(spec).key()};
    std::vector<ct::CompressorTree> unique;
    for (auto& t : pool) {
      if (seen.insert(t.key()).second) unique.push_back(std::move(t));
    }
    pool = std::move(unique);
  }
  auto evaluator = std::make_unique<synth::DesignEvaluator>(spec, targets);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == pool.size()) {
      state.PauseTiming();
      evaluator = std::make_unique<synth::DesignEvaluator>(spec, targets);
      next = 0;
      state.ResumeTiming();
    }
    const auto eval = evaluator->evaluate(pool[next++]);
    benchmark::DoNotOptimize(eval.sum_area);
  }
}
BENCHMARK(BM_EvaluateUniqueDesign)
    ->ArgNames({"bits"})
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Batched SoA evaluation throughput. Arg0 = operand bits, Arg1 =
// group size K: every iteration evaluates K never-seen-before designs,
// through one evaluate_batch() call for K > 1 or one evaluate() call
// for K == 1 (a batch of one). items_per_second therefore reads as
// unique designs per second.
void BM_EvaluateBatch(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  const int batch = static_cast<int>(state.range(1));
  const std::vector<double> targets = synth::default_targets(spec);
  // Unique random-walk trees; the evaluator is rebuilt — outside the
  // timing — when the pool wraps so every timed design is a cache miss.
  auto pool = bench::random_trees(spec, 160, 6, 43);
  {
    std::set<std::string> seen{ppg::initial_tree(spec).key()};
    std::vector<ct::CompressorTree> unique;
    for (auto& t : pool) {
      if (seen.insert(t.key()).second) unique.push_back(std::move(t));
    }
    pool = std::move(unique);
  }
  const std::size_t k = static_cast<std::size_t>(batch);
  auto evaluator = std::make_unique<synth::DesignEvaluator>(spec, targets);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next + k > pool.size()) {
      state.PauseTiming();
      evaluator = std::make_unique<synth::DesignEvaluator>(spec, targets);
      next = 0;
      state.ResumeTiming();
    }
    if (batch > 1) {
      const std::vector<ct::CompressorTree> group(
          pool.begin() + static_cast<std::ptrdiff_t>(next),
          pool.begin() + static_cast<std::ptrdiff_t>(next + k));
      const auto evals = evaluator->evaluate_batch(group);
      benchmark::DoNotOptimize(evals.back().sum_area);
    } else {
      const auto eval = evaluator->evaluate(pool[next]);
      benchmark::DoNotOptimize(eval.sum_area);
    }
    next += k;
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EvaluateBatch)
    ->ArgNames({"bits", "batch"})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Args({8, 16})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({16, 16})
    // A drain fans designs out to the shared pool, so the meaningful
    // rate is wall-clock.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Trajectory-shaped evaluation through the delta route: every timed
// evaluate() is a never-seen-before CPA-pinned point hinted with its
// pre-move parent — the shape rl::MultiplierEnv::step and the joint SA
// chain emit. Arg0 = operand bits. Bit-identity to the reference
// pipeline is enforced by tests/test_delta_eval.cpp.
void BM_EvaluateDelta(benchmark::State& state) {
  const ppg::MultiplierSpec spec{static_cast<int>(state.range(0)),
                                 ppg::PpgKind::kAnd, false};
  const std::vector<double> targets = synth::default_targets(spec);
  // Random-walk chain over the tree under one pinned Sklansky adder:
  // step i is one legal action off step i-1, so each evaluation hints
  // the previous point as its parent.
  struct TrajStep {
    ppg::DesignPoint point;
    std::string parent_key;
  };
  ppg::DesignPoint root;
  root.ppg = spec.ppg;
  root.tree = ppg::initial_tree(spec);
  root.cpa = prefix::sklansky(spec.columns());
  std::vector<TrajStep> chain;
  {
    util::Rng rng(77);
    std::set<std::string> seen{root.key(spec)};
    ppg::DesignPoint cur = root;
    while (chain.size() < 64) {
      const auto mask = ct::legal_action_mask(cur.tree);
      std::vector<int> legal;
      for (int k = 0; k < static_cast<int>(mask.size()); ++k) {
        if (mask[k]) legal.push_back(k);
      }
      if (legal.empty()) break;
      ppg::DesignPoint child = cur;
      child.tree = ct::apply_action(
          cur.tree, ct::action_from_index(legal[rng.next() % legal.size()]));
      if (seen.insert(child.key(spec)).second) {
        chain.push_back({child, cur.key(spec)});
      }
      cur = std::move(child);
    }
  }
  // A fresh evaluator retains the chain's root as the first parent.
  auto fresh = [&] {
    auto ev = std::make_unique<synth::DesignEvaluator>(spec, targets);
    ev->evaluate(root);
    return ev;
  };
  auto evaluator = fresh();
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == chain.size()) {
      state.PauseTiming();
      evaluator = fresh();
      next = 0;
      state.ResumeTiming();
    }
    const auto eval = evaluator->evaluate(
        chain[next].point, synth::ParentHint{chain[next].parent_key});
    benchmark::DoNotOptimize(eval.sum_area);
    ++next;
  }
}
BENCHMARK(BM_EvaluateDelta)
    ->ArgNames({"bits"})
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// One parallel environment step dispatched through the persistent
// rl::EnvPool workers (pool=1) versus the per-step std::thread
// spawn/join the A2C trainer historically paid on every rollout step
// (pool=0). The envs alternate a cached step with a reset, so after
// the first lap synthesis is free and the measurement isolates the
// dispatch overhead the pool removes.
void BM_ParallelEnvStep(benchmark::State& state) {
  const ppg::MultiplierSpec spec{8, ppg::PpgKind::kAnd, false};
  const int workers = static_cast<int>(state.range(0));
  const bool pooled = state.range(1) != 0;
  synth::DesignEvaluator evaluator(spec);
  rl::EnvPool pool(evaluator, rl::EnvConfig{}, workers);
  // Every env always steps the same legal action from the initial
  // state, so each evaluate() is a cache hit after the first lap.
  std::vector<int> actions(static_cast<std::size_t>(workers));
  {
    const auto mask = pool.env(0).mask();
    int first = 0;
    while (mask[static_cast<std::size_t>(first)] == 0) ++first;
    for (auto& a : actions) a = first;
  }
  const std::vector<int> resets(static_cast<std::size_t>(workers), -1);
  bool do_reset = false;
  for (auto _ : state) {
    const auto& acts = do_reset ? resets : actions;
    if (pooled) {
      benchmark::DoNotOptimize(pool.step_all(acts).size());
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(workers));
      for (int i = 0; i < workers; ++i) {
        threads.emplace_back([&acts, &pool, i] {
          const int a = acts[static_cast<std::size_t>(i)];
          if (a < 0) {
            pool.env(i).reset();
          } else {
            pool.env(i).step(a);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    do_reset = !do_reset;
  }
}
BENCHMARK(BM_ParallelEnvStep)
    ->ArgNames({"envs", "pool"})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Args({8, 0})
    ->Unit(benchmark::kMicrosecond);

void BM_EncodeState(benchmark::State& state) {
  const ppg::MultiplierSpec spec{16, ppg::PpgKind::kAnd, false};
  const auto tree = ppg::initial_tree(spec);
  for (auto _ : state) {
    const auto t = rl::encode_tree(tree, 8);
    benchmark::DoNotOptimize(t.numel());
  }
}
BENCHMARK(BM_EncodeState);

// Pins nt::sgemm to blocked or naive for one benchmark's scope and
// restores whatever RLMUL_GEMM selected afterwards, so A/B pairs can
// run in a single process.
class GemmModeGuard {
 public:
  explicit GemmModeGuard(bool blocked) : saved_(nt::gemm_mode()) {
    nt::set_gemm_mode(blocked ? nt::GemmMode::kBlocked
                              : nt::GemmMode::kNaive);
  }
  ~GemmModeGuard() { nt::set_gemm_mode(saved_); }

 private:
  nt::GemmMode saved_;
};

// Raw kernel throughput on the conv-forward shape class (C = A·Bᵀ).
void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GemmModeGuard guard(state.range(1) != 0);
  util::Rng rng(1);
  const nt::Tensor a = nt::Tensor::randn({n, n}, rng, 1.0f);
  const nt::Tensor b = nt::Tensor::randn({n, n}, rng, 1.0f);
  nt::Tensor c({n, n});
  for (auto _ : state) {
    nt::sgemm(false, true, n, n, n, a.data(), n, 0, b.data(), n, 0, c.data(),
              n, 0, 1, false, nullptr, nt::BiasKind::kNone);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<int64_t>(n) *
                          n * n);
}
BENCHMARK(BM_Gemm)
    ->ArgNames({"n", "blocked"})
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({256, 1})
    ->Args({256, 0});

// A mid-network residual conv: 64 -> 64 channels, 3x3, on the spatial
// extent the 8-bit multiplier encoding produces.
void BM_Conv2dFwd(benchmark::State& state) {
  const GemmModeGuard guard(state.range(0) != 0);
  util::Rng rng(1);
  nn::Conv2d conv(64, 64, 3, 1, 1, rng, /*bias=*/false);
  const nt::Tensor x = nt::Tensor::randn({8, 64, 16, 8}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x).numel());
  }
}
BENCHMARK(BM_Conv2dFwd)->ArgNames({"blocked"})->Args({1})->Args({0});

void BM_Conv2dBwd(benchmark::State& state) {
  const GemmModeGuard guard(state.range(0) != 0);
  util::Rng rng(1);
  nn::Conv2d conv(64, 64, 3, 1, 1, rng, /*bias=*/false);
  const nt::Tensor x = nt::Tensor::randn({8, 64, 16, 8}, rng, 1.0f);
  const nt::Tensor y = conv.forward(x);  // backward reuses its im2col
  nt::Tensor grad(y.shape());
  grad.fill(1.0f / static_cast<float>(y.numel()));
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(grad).numel());
  }
}
BENCHMARK(BM_Conv2dBwd)->ArgNames({"blocked"})->Args({1})->Args({0});

// One full training step (zero_grad + forward + backward) of the
// paper-sized ResNet-18 over the 16-bit multiplier encoding
// (3 channels x 32 columns x 8 stages), batch 32 — the ISSUE's >= 4x
// blocked-vs-naive acceptance target is measured on this entry.
void BM_ResNet18Step(benchmark::State& state) {
  const GemmModeGuard guard(state.range(0) != 0);
  util::Rng rng(1);
  nn::ResNet net(nn::resnet18_config(rl::kStateChannels, 128), rng);
  net.set_training(true);
  const nt::Tensor x =
      nt::Tensor::randn({32, rl::kStateChannels, 32, 8}, rng, 1.0f);
  for (auto _ : state) {
    net.zero_grad();
    const nt::Tensor y = net.forward(x);
    nt::Tensor grad(y.shape());
    grad.fill(1.0f / static_cast<float>(y.numel()));
    benchmark::DoNotOptimize(net.backward(grad).numel());
  }
}
BENCHMARK(BM_ResNet18Step)
    ->ArgNames({"blocked"})
    ->Args({1})
    ->Args({0})
    ->Unit(benchmark::kMillisecond);

void BM_TinyNetForwardBackward(benchmark::State& state) {
  util::Rng rng(1);
  nn::ResNet net(nn::resnet_tiny_config(2, 64), rng);
  net.set_training(true);
  const nt::Tensor x = nt::Tensor::randn({8, 2, 16, 8}, rng, 1.0f);
  for (auto _ : state) {
    net.zero_grad();
    const nt::Tensor y = net.forward(x);
    nt::Tensor grad(y.shape());
    grad.fill(1.0f / static_cast<float>(y.numel()));
    benchmark::DoNotOptimize(net.backward(grad).numel());
  }
}
BENCHMARK(BM_TinyNetForwardBackward);

void BM_Resnet18Forward(benchmark::State& state) {
  util::Rng rng(1);
  nn::ResNet net(nn::resnet18_config(2, 64), rng);
  net.set_training(false);
  const nt::Tensor x = nt::Tensor::randn({1, 2, 16, 16}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x).numel());
  }
}
BENCHMARK(BM_Resnet18Forward);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Machine-readable throughput counters; the CI smoke test parses
  // this line, so keep the `RLMUL_COUNTERS ` prefix stable. The
  // RLMUL_BUILD line records which build (compiler/sanitizers/TSA)
  // produced the numbers.
  std::printf("RLMUL_BUILD %s\n", rlmul::util::build_info().c_str());
  std::printf("RLMUL_COUNTERS %s\n",
              rlmul::util::format_perf_counters().c_str());
  return 0;
}
