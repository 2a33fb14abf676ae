// Property tests for the batched SoA evaluation pipeline
// (src/synth/batch_eval.* + the DesignEvaluator coalescing layer): the
// contract is that batching is invisible — per-design results are
// bit-identical to the reference pipeline synthesized one target at a
// time, the EDA budget still counts unique designs only, and dsdb
// traffic is one append per unique design. The tsan label puts the
// 8-thread hammer under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ct/compressor_tree.hpp"
#include "dsdb/store.hpp"
#include "ppg/ppg.hpp"
#include "prefix/prefix_graph.hpp"
#include "sta/batch_sweep.hpp"
#include "synth/evaluator.hpp"
#include "synth/synth.hpp"
#include "util/rng.hpp"

namespace rlmul {
namespace {

using ppg::MultiplierSpec;
using ppg::PpgKind;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Field-wise bitwise comparison (the struct has padding bytes, so the
/// "memcmp-identical" contract is enforced per member).
void expect_same_result(const synth::SynthesisResult& a,
                        const synth::SynthesisResult& b,
                        const std::string& what) {
  EXPECT_TRUE(bits_equal(a.area_um2, b.area_um2))
      << what << ": area " << a.area_um2 << " vs " << b.area_um2;
  EXPECT_TRUE(bits_equal(a.delay_ns, b.delay_ns))
      << what << ": delay " << a.delay_ns << " vs " << b.delay_ns;
  EXPECT_TRUE(bits_equal(a.power_mw, b.power_mw))
      << what << ": power " << a.power_mw << " vs " << b.power_mw;
  EXPECT_EQ(a.met_target, b.met_target) << what;
  EXPECT_EQ(a.cpa, b.cpa) << what;
  EXPECT_EQ(a.num_gates, b.num_gates) << what;
}

void expect_same_eval(const synth::DesignEval& a, const synth::DesignEval& b,
                      const std::string& what) {
  ASSERT_EQ(a.per_target.size(), b.per_target.size()) << what;
  for (std::size_t t = 0; t < a.per_target.size(); ++t) {
    expect_same_result(a.per_target[t], b.per_target[t],
                       what + " target " + std::to_string(t));
  }
  EXPECT_TRUE(bits_equal(a.sum_area, b.sum_area)) << what;
  EXPECT_TRUE(bits_equal(a.sum_delay, b.sum_delay)) << what;
  EXPECT_TRUE(bits_equal(a.sum_power, b.sum_power)) << what;
}

/// The reference evaluation of a tree: the legacy rebuild-everything
/// pipeline, one target at a time, summed in target order exactly as
/// the evaluator sums.
synth::DesignEval oracle_eval(const MultiplierSpec& spec,
                              const ct::CompressorTree& tree,
                              const std::vector<double>& targets) {
  synth::DesignEval eval;
  for (double t : targets) {
    const synth::SynthesisResult res =
        synth::synthesize_design_legacy(spec, tree, t);
    eval.sum_area += res.area_um2;
    eval.sum_delay += res.delay_ns;
    eval.sum_power += res.power_mw;
    eval.per_target.push_back(res);
  }
  return eval;
}

/// Designs along a masked random walk from Wallace — consecutive
/// entries differ by one action (the near-duplicate case: shared
/// structure, different key).
std::vector<ct::CompressorTree> walk_designs(const MultiplierSpec& spec,
                                             int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ct::CompressorTree> designs;
  ct::CompressorTree tree = ppg::initial_tree(spec);
  designs.push_back(tree);
  while (static_cast<int>(designs.size()) < count) {
    const auto mask = ct::legal_action_mask(tree);
    std::vector<double> w(mask.size());
    for (std::size_t k = 0; k < mask.size(); ++k) w[k] = mask[k];
    const auto pick = rng.sample_discrete(w);
    tree =
        ct::apply_action(tree, ct::action_from_index(static_cast<int>(pick)));
    designs.push_back(tree);
  }
  return designs;
}

// Random specs and widths, random batch compositions K <= 16 sampled
// with replacement (duplicates within one batch) from a walk pool
// (near-duplicates across entries): every batched result must be
// bit-identical to the reference pipeline on the same tree.
TEST(BatchEval, MatchesSinglePathBitExact) {
  const std::vector<MultiplierSpec> specs{
      {4, PpgKind::kAnd, false},
      {5, PpgKind::kBaughWooley, false},
      {6, PpgKind::kBooth, false},
  };
  util::Rng rng(7);
  for (const auto& spec : specs) {
    const auto pool = walk_designs(spec, 10, 11 + spec.bits);

    synth::DesignEvaluator batched(spec);
    std::vector<synth::DesignEval> expected;
    for (const auto& d : pool) {
      expected.push_back(oracle_eval(spec, d, batched.targets()));
    }
    for (int round = 0; round < 3; ++round) {
      const int k = 1 + static_cast<int>(rng.next() % 16);
      std::vector<ct::CompressorTree> group;
      std::vector<std::size_t> picks;
      for (int i = 0; i < k; ++i) {
        picks.push_back(rng.next() % pool.size());
        group.push_back(pool[picks.back()]);
      }
      const auto evals = batched.evaluate_batch(group);
      ASSERT_EQ(evals.size(), group.size());
      for (int i = 0; i < k; ++i) {
        expect_same_eval(evals[static_cast<std::size_t>(i)],
                         expected[picks[static_cast<std::size_t>(i)]],
                         std::to_string(spec.bits) + "b round " +
                             std::to_string(round) + " design " +
                             std::to_string(i));
      }
    }
  }
}

// The search budget is counted in unique designs synthesized, exactly
// as the single path counts it: duplicates inside a batch, repeats
// across batches and cache hits are free.
TEST(BatchEval, BudgetCountsUniqueDesignsOnly) {
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  const auto pool = walk_designs(spec, 5, 21);

  synth::DesignEvaluator evaluator(spec);

  // 12 requests over 5 unique designs, duplicates included.
  std::vector<ct::CompressorTree> group;
  for (int i = 0; i < 12; ++i) group.push_back(pool[i % pool.size()]);
  evaluator.evaluate_batch(group);
  EXPECT_EQ(evaluator.num_unique_evaluations(), pool.size());

  // A second pass over the same designs is served from the cache.
  evaluator.evaluate_batch(group);
  EXPECT_EQ(evaluator.num_unique_evaluations(), pool.size());

  const auto stats = evaluator.stats();
  EXPECT_EQ(stats.unique_evals, pool.size());
  EXPECT_GE(stats.eval_batches, 1u);
  EXPECT_GE(stats.eval_batched_designs, stats.unique_evals);
}

// dsdb traffic: a batched cold run appends exactly one record per
// unique design, and a warm rerun is served entirely from the store
// (zero new synthesis).
TEST(BatchEval, DsdbHitAndAppendParity) {
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  const std::vector<double> targets = synth::default_targets(spec);
  const auto pool = walk_designs(spec, 6, 31);
  // The walk may revisit a state (action then inverse action), so the
  // store sees one record per unique key, not per request.
  std::set<std::string> keys;
  for (const auto& d : pool) keys.insert(d.key());

  const std::string root =
      (std::filesystem::temp_directory_path() / "rlmul_test_batch_eval")
          .string();
  std::filesystem::remove_all(root);

  std::uint64_t batched_appends = 0;
  {
    dsdb::Store store(root + "/batched");
    dsdb::EvaluatorBinding binding(store, spec, targets);
    synth::EvaluatorOptions opts;
    opts.external_cache = &binding;
    synth::DesignEvaluator evaluator(spec, targets, opts);
    evaluator.evaluate_batch(pool);
    store.flush();
    batched_appends = store.stats().appends;
  }
  // The pool holds Wallace itself, so the constructor's reference
  // evaluation is one of the unique keys, appended once.
  ASSERT_EQ(pool.front().key(), ppg::initial_tree(spec).key());
  EXPECT_EQ(batched_appends, keys.size());

  // Warm rerun against the batched store: every design is a store hit,
  // no synthesis is run, nothing new is appended.
  {
    dsdb::Store store(root + "/batched");
    dsdb::EvaluatorBinding binding(store, spec, targets);
    synth::EvaluatorOptions opts;
    opts.external_cache = &binding;
    synth::DesignEvaluator evaluator(spec, targets, opts);
    evaluator.evaluate_batch(pool);
    EXPECT_EQ(evaluator.num_unique_evaluations(), 0u);
    EXPECT_EQ(store.stats().hits, keys.size());
    EXPECT_EQ(store.stats().appends, 0u);
  }
  std::filesystem::remove_all(root);
}

// 8 threads hammering one shared evaluator with overlapping
// evaluate_batch() and evaluate() calls: results must stay
// bit-identical to the reference pipeline at any thread count, and
// every request must complete (no lost wakeups in the coalescing
// protocol).
TEST(BatchEval, ConcurrentBatchesMatchSinglePath) {
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  const auto pool = walk_designs(spec, 8, 41);

  synth::DesignEvaluator shared(spec);
  std::vector<synth::DesignEval> expected;
  for (const auto& d : pool) {
    expected.push_back(oracle_eval(spec, d, shared.targets()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t]() {
      util::Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int round = 0; round < 4; ++round) {
        std::vector<ct::CompressorTree> group;
        std::vector<std::size_t> picks;
        const int k = 1 + static_cast<int>(rng.next() % 6);
        for (int i = 0; i < k; ++i) {
          picks.push_back(rng.next() % pool.size());
          group.push_back(pool[picks.back()]);
        }
        const auto evals = shared.evaluate_batch(group);
        for (int i = 0; i < k; ++i) {
          const auto& got = evals[static_cast<std::size_t>(i)];
          const auto& want = expected[picks[static_cast<std::size_t>(i)]];
          if (!bits_equal(got.sum_area, want.sum_area) ||
              !bits_equal(got.sum_delay, want.sum_delay) ||
              !bits_equal(got.sum_power, want.sum_power)) {
            ++mismatches;
          }
        }
        // Interleave single-design requests into the same pending
        // queue (they coalesce with other threads' batches).
        const std::size_t solo = rng.next() % pool.size();
        const auto eval = shared.evaluate(pool[solo]);
        if (!bits_equal(eval.sum_area, expected[solo].sum_area)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = shared.stats();
  EXPECT_EQ(stats.unique_evals, pool.size());
}

// Every target is one lane of the batched sweep, so a target vector
// longer than sta::BatchTimer::kMaxLanes is rejected up front; one
// that exactly fills the lanes evaluates normally.
TEST(BatchEval, RejectsMoreTargetsThanLanes) {
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  const std::vector<double> base = synth::default_targets(spec);
  std::vector<double> full;
  for (int i = 0; i < sta::BatchTimer::kMaxLanes; ++i) {
    full.push_back(base[static_cast<std::size_t>(i) % base.size()] +
                   0.001 * i);
  }
  synth::DesignEvaluator fits(spec, full);
  EXPECT_EQ(fits.targets().size(), full.size());
  const ct::CompressorTree wallace = ppg::initial_tree(spec);
  expect_same_eval(fits.evaluate(wallace), oracle_eval(spec, wallace, full),
                   "32 lanes");

  std::vector<double> over = full;
  over.push_back(base.back());
  EXPECT_THROW(synth::DesignEvaluator(spec, over), std::invalid_argument);
}

// The equivalence gate runs on both routes: a plain tree (batched), a
// PPG-toggled point and a CPA-pinned point (per-call delta). A correct
// design passes the gate, and the gate never changes a reported
// number: each result equals the gate-off evaluator's per double.
TEST(BatchEval, EquivalenceGateOnBothRoutes) {
  const MultiplierSpec spec{6, PpgKind::kAnd, false};
  const std::vector<double> targets = synth::default_targets(spec);
  synth::EvaluatorOptions gated;
  gated.verify_functionality = true;
  synth::DesignEvaluator on(spec, targets, gated);
  synth::DesignEvaluator off(spec, targets);

  const ct::CompressorTree tree = walk_designs(spec, 4, 51).back();
  ppg::DesignPoint toggled;
  toggled.ppg = PpgKind::kBooth;
  toggled.tree = ppg::retarget_tree(tree, toggled.resolved_spec(spec));
  ppg::DesignPoint pinned;
  pinned.ppg = spec.ppg;
  pinned.tree = tree;
  pinned.cpa = prefix::sklansky(spec.columns());

  expect_same_eval(on.evaluate(tree), off.evaluate(tree), "plain tree");
  expect_same_eval(on.evaluate(toggled), off.evaluate(toggled),
                   "PPG-toggled point");
  expect_same_eval(on.evaluate(pinned), off.evaluate(pinned),
                   "CPA-pinned point");
}

}  // namespace
}  // namespace rlmul
