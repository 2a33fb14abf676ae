// Delta evaluation (parent-relative incremental synthesis + STA
// warm-start): the standing repo contract is that every optimized
// path is bit-identical per double to the from-scratch pipeline. These
// tests walk randomized move sequences through PreparedDesign's delta
// mode and the evaluator's ParentHint route (CPA-pinned points) and
// compare every SynthesisResult field bitwise against scratch builds
// and the synthesize_design oracle, across PPG families, all four menu
// CPAs (as menu sweeps and as pinned graphs), and off-menu prefix
// graphs. The concurrency test hammers one retained parent with
// parallel children (run under `ctest -L tsan`).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ct/compressor_tree.hpp"
#include "ppg/ppg.hpp"
#include "prefix/prefix_graph.hpp"
#include "synth/evaluator.hpp"
#include "synth/synth.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"

namespace {

using namespace rlmul;

const double kTargets[2] = {0.7, 1.2};

bool SameResult(const synth::SynthesisResult& a,
                const synth::SynthesisResult& b) {
  return std::memcmp(&a.area_um2, &b.area_um2, sizeof(double)) == 0 &&
         std::memcmp(&a.delay_ns, &b.delay_ns, sizeof(double)) == 0 &&
         std::memcmp(&a.power_mw, &b.power_mw, sizeof(double)) == 0 &&
         a.met_target == b.met_target && a.cpa == b.cpa &&
         a.num_gates == b.num_gates;
}

std::vector<ct::CompressorTree> RandomWalk(const ppg::MultiplierSpec& spec,
                                           int steps, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ct::CompressorTree> walk;
  ct::CompressorTree tree = ppg::initial_tree(spec);
  for (int i = 0; i < steps; ++i) {
    walk.push_back(tree);
    const auto mask = ct::legal_action_mask(tree);
    std::vector<int> legal;
    for (int k = 0; k < static_cast<int>(mask.size()); ++k) {
      if (mask[k]) legal.push_back(k);
    }
    if (legal.empty()) break;  // dead end; callers assert non-empty walks
    tree = ct::apply_action(
        tree, ct::action_from_index(legal[rng.next() % legal.size()]));
  }
  return walk;
}

/// Chains delta designs along `walk` (each step's design parents the
/// next) and compares every target's result bitwise against a scratch
/// PreparedDesign of the same step. `graphs` empty = menu sweep;
/// otherwise step s pins graphs[s % graphs.size()].
void ExpectDeltaMatchesScratch(const ppg::MultiplierSpec& spec,
                               const std::vector<ct::CompressorTree>& walk,
                               const std::vector<prefix::PrefixGraph>& graphs) {
  std::shared_ptr<const synth::PreparedDesign> parent;
  for (std::size_t s = 0; s < walk.size(); ++s) {
    std::shared_ptr<synth::PreparedDesign> prep;
    std::unique_ptr<synth::PreparedDesign> scratch;
    if (graphs.empty()) {
      prep = std::make_shared<synth::PreparedDesign>(
          synth::PreparedDesign::DeltaMode{}, spec, walk[s], parent);
      scratch = std::make_unique<synth::PreparedDesign>(spec, walk[s]);
    } else {
      const prefix::PrefixGraph& g = graphs[s % graphs.size()];
      prep = std::make_shared<synth::PreparedDesign>(
          synth::PreparedDesign::DeltaMode{}, spec, walk[s], g, parent);
      scratch = std::make_unique<synth::PreparedDesign>(spec, walk[s], g);
    }
    if (s > 0) {
      EXPECT_TRUE(prep->used_parent()) << "step " << s;
    }
    for (const double target : kTargets) {
      const synth::SynthesisResult d = prep->synthesize(target);
      const synth::SynthesisResult r = scratch->synthesize(target);
      EXPECT_TRUE(SameResult(d, r))
          << "step " << s << " target " << target << ": delta ("
          << d.area_um2 << ", " << d.delay_ns << ", " << d.power_mw
          << ") vs scratch (" << r.area_um2 << ", " << r.delay_ns << ", "
          << r.power_mw << ")";
    }
    prep->seal_for_retention();
    parent = prep;
  }
}

/// Pins `graph` onto every tree of `walk`: a chain of extended points,
/// each one tree move off the previous.
std::vector<ppg::DesignPoint> PinnedPoints(
    const ppg::MultiplierSpec& spec,
    const std::vector<ct::CompressorTree>& walk,
    const prefix::PrefixGraph& graph) {
  std::vector<ppg::DesignPoint> points;
  for (const ct::CompressorTree& tree : walk) {
    ppg::DesignPoint p;
    p.ppg = spec.ppg;
    p.tree = tree;
    p.cpa = graph;
    points.push_back(std::move(p));
  }
  return points;
}

/// Compares an evaluator result per double against the oracle: one
/// synthesize_design call per target.
void ExpectMatchesOracle(const ppg::MultiplierSpec& spec,
                         const ppg::DesignPoint& point,
                         const std::vector<double>& targets,
                         const synth::DesignEval& got,
                         const std::string& what) {
  ASSERT_EQ(got.per_target.size(), targets.size()) << what;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_TRUE(SameResult(got.per_target[t],
                           synth::synthesize_design(spec, point, targets[t])))
        << what << " target " << t;
  }
}

prefix::PrefixGraph OffMenuGraph(int width, int seed_bit) {
  prefix::Matrix m = prefix::matrix_of(prefix::sklansky(width));
  prefix::Move mv;
  mv.kind = prefix::MoveKind::kRemoveNode;
  mv.level = 1;
  mv.bit = seed_bit;
  return prefix::legalize(prefix::apply_move(std::move(m), mv)).graph;
}

TEST(DeltaEval, MenuWalkBitIdenticalAcrossPpgFamilies) {
  for (const ppg::PpgKind kind :
       {ppg::PpgKind::kAnd, ppg::PpgKind::kBooth, ppg::PpgKind::kBaughWooley}) {
    const ppg::MultiplierSpec spec{8, kind, false};
    std::vector<ct::CompressorTree> walk = RandomWalk(spec, 10, 0xD17A + 7);
    ASSERT_FALSE(walk.empty());
    ExpectDeltaMatchesScratch(spec, walk, {});
  }
}

TEST(DeltaEval, PinnedMenuCpasBitIdentical) {
  const ppg::MultiplierSpec spec{8, ppg::PpgKind::kAnd, false};
  const int w = spec.columns();
  const prefix::PrefixGraph menu[] = {prefix::serial(w), prefix::brent_kung(w),
                                      prefix::sklansky(w),
                                      prefix::kogge_stone(w)};
  for (const prefix::PrefixGraph& g : menu) {
    std::vector<ct::CompressorTree> walk = RandomWalk(spec, 5, 0xF00D);
    ASSERT_FALSE(walk.empty());
    ExpectDeltaMatchesScratch(spec, walk, {g});
  }
}

TEST(DeltaEval, OffMenuPinnedBitIdentical) {
  const ppg::MultiplierSpec spec{8, ppg::PpgKind::kAnd, false};
  const int w = spec.columns();
  std::vector<ct::CompressorTree> walk = RandomWalk(spec, 8, 0xBEEF);
  ASSERT_FALSE(walk.empty());
  // Constant off-menu graph: the CPA-patch path on a non-menu adder.
  ExpectDeltaMatchesScratch(spec, walk, {OffMenuGraph(w, w / 2)});
  // Alternating off-menu graphs: every step changes the adder, so the
  // CPA region is re-emitted fresh while the tree region still patches.
  ExpectDeltaMatchesScratch(spec, walk,
                            {OffMenuGraph(w, w / 2), OffMenuGraph(w, 3)});
}

TEST(DeltaEval, DiffTreesReportsChangedColumns) {
  const ppg::MultiplierSpec spec{8, ppg::PpgKind::kAnd, false};
  const ct::CompressorTree a = ppg::initial_tree(spec);
  EXPECT_TRUE(ct::diff_trees(a, a).identical());
  const auto mask = ct::legal_action_mask(a);
  int first_legal = -1;
  for (int k = 0; k < static_cast<int>(mask.size()); ++k) {
    if (mask[k]) {
      first_legal = k;
      break;
    }
  }
  ASSERT_GE(first_legal, 0);
  const ct::CompressorTree b =
      ct::apply_action(a, ct::action_from_index(first_legal));
  const ct::TreeDelta d = ct::diff_trees(a, b);
  EXPECT_TRUE(d.same_shape);
  EXPECT_FALSE(d.changed_columns.empty());
  // Different PPG heights are a different shape entirely.
  const ppg::MultiplierSpec booth{8, ppg::PpgKind::kBooth, false};
  const ct::TreeDelta x = ct::diff_trees(a, ppg::initial_tree(booth));
  EXPECT_FALSE(x.same_shape);
}

TEST(DeltaEval, DiffGraphsDetectsIdenticalAndChanged) {
  const prefix::PrefixGraph a = prefix::sklansky(16);
  EXPECT_TRUE(prefix::diff_graphs(a, prefix::sklansky(16)).identical);
  const prefix::GraphDelta d = prefix::diff_graphs(a, prefix::brent_kung(16));
  EXPECT_FALSE(d.identical);
  EXPECT_FALSE(d.changed_outputs.empty());
}

TEST(DeltaEval, EvaluatorHintsMatchScratchAndCount) {
  const ppg::MultiplierSpec spec{8, ppg::PpgKind::kAnd, false};
  const std::vector<ct::CompressorTree> walk = RandomWalk(spec, 8, 0xCAFE);
  ASSERT_FALSE(walk.empty());
  const std::vector<double> targets(std::begin(kTargets), std::end(kTargets));
  const std::vector<ppg::DesignPoint> points =
      PinnedPoints(spec, walk, prefix::sklansky(spec.columns()));
  synth::DesignEvaluator evaluator(spec, targets);

  auto& counters = util::perf_counters();
  const std::uint64_t hits0 = counters.eval_delta_hits.load();
  for (std::size_t s = 0; s < points.size(); ++s) {
    synth::ParentHint hint;
    if (s > 0) hint.key = points[s - 1].key(spec);
    ExpectMatchesOracle(spec, points[s], targets,
                        evaluator.evaluate(points[s], hint),
                        "step " + std::to_string(s));
  }
  // Every hinted step found its parent retained in the LRU.
  EXPECT_GE(counters.eval_delta_hits.load() - hits0, points.size() - 1);

  // A hint whose parent was never retained falls back to scratch —
  // same numbers, fallback counter bumped.
  const std::uint64_t fb0 = counters.eval_delta_fallbacks.load();
  const ppg::DesignPoint other =
      PinnedPoints(spec, RandomWalk(spec, 6, 0x5EED),
                   prefix::sklansky(spec.columns()))
          .back();
  ExpectMatchesOracle(
      spec, other, targets,
      evaluator.evaluate(other, synth::ParentHint{"no-such-parent"}),
      "unretained parent");
  EXPECT_GE(counters.eval_delta_fallbacks.load() - fb0, 1u);
}

// Several workers evaluate distinct children of the same retained
// parent concurrently: children only read the sealed parent's
// immutable state, so this must be race-free (TSan) and every result
// bit-identical to the oracle.
TEST(DeltaEval, ConcurrentChildrenOfSharedParent) {
  const ppg::MultiplierSpec spec{8, ppg::PpgKind::kAnd, false};
  const std::vector<double> targets(std::begin(kTargets), std::end(kTargets));
  synth::DesignEvaluator evaluator(spec, targets);

  const ppg::DesignPoint parent =
      PinnedPoints(spec, {ppg::initial_tree(spec)},
                   prefix::brent_kung(spec.columns()))
          .front();
  evaluator.evaluate(parent);  // retained in the parent LRU
  const auto mask = ct::legal_action_mask(parent.tree);
  std::vector<ppg::DesignPoint> children;
  std::set<std::string> keys{parent.key(spec)};
  for (int k = 0; k < static_cast<int>(mask.size()) && children.size() < 4;
       ++k) {
    if (!mask[k]) continue;
    ppg::DesignPoint child = parent;
    child.tree = ct::apply_action(parent.tree, ct::action_from_index(k));
    if (keys.insert(child.key(spec)).second) {
      children.push_back(std::move(child));
    }
  }
  ASSERT_EQ(children.size(), 4u);

  auto& counters = util::perf_counters();
  const std::uint64_t hits0 = counters.eval_delta_hits.load();
  std::vector<synth::DesignEval> got(children.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < children.size(); ++i) {
    workers.emplace_back([&, i] {
      got[i] = evaluator.evaluate(children[i],
                                  synth::ParentHint{parent.key(spec)});
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counters.eval_delta_hits.load() - hits0, children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    ExpectMatchesOracle(spec, children[i], targets, got[i],
                        "child " + std::to_string(i));
  }
}

}  // namespace
