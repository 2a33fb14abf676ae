// Property tests for the synthesis fast path: the worklist-based
// incremental timer must be indistinguishable from a full sta::analyze
// after arbitrary resize sequences, prepared-design synthesis must be
// bit-identical to the legacy rebuild-per-CPA pipeline, and parallel
// multi-constraint evaluation must return exactly what a serial
// evaluation returns.

#include <gtest/gtest.h>

#include <vector>

#include "ct/compressor_tree.hpp"
#include "ppg/ppg.hpp"
#include "prefix/prefix_graph.hpp"
#include "sta/sta.hpp"
#include "synth/evaluator.hpp"
#include "synth/synth.hpp"
#include "util/rng.hpp"

namespace rlmul {
namespace {

using netlist::CellLibrary;
using netlist::CpaKind;
using netlist::GateId;
using netlist::Netlist;
using ppg::MultiplierSpec;
using ppg::PpgKind;

/// Masked random walk from the Wallace tree (the same move set the RL
/// episodes use), so the properties are checked on realistic designs.
ct::CompressorTree random_tree(const MultiplierSpec& spec, int steps,
                               util::Rng& rng) {
  ct::CompressorTree tree = ppg::initial_tree(spec);
  for (int s = 0; s < steps; ++s) {
    const auto mask = ct::legal_action_mask(tree);
    std::vector<double> w(mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) w[i] = mask[i];
    const auto pick = rng.sample_discrete(w);
    if (pick >= mask.size()) break;
    tree = ct::apply_action(tree,
                            ct::action_from_index(static_cast<int>(pick)));
  }
  return tree;
}

void expect_timer_matches_analyze(const Netlist& nl, const CellLibrary& lib,
                                  const sta::IncrementalTimer& timer) {
  const auto rep = sta::analyze(nl, lib);
  ASSERT_EQ(timer.arrival_ps().size(), rep.arrival_ps.size());
  for (std::size_t n = 0; n < rep.arrival_ps.size(); ++n) {
    EXPECT_DOUBLE_EQ(timer.arrival_ps()[n], rep.arrival_ps[n]) << "net " << n;
    EXPECT_DOUBLE_EQ(timer.load_ff()[n], rep.load_ff[n]) << "net " << n;
  }
  EXPECT_NEAR(timer.critical_ps(), rep.critical_ps, 0.01);
  EXPECT_DOUBLE_EQ(timer.max_po_arrival_ps(), rep.max_po_arrival_ps);
  EXPECT_DOUBLE_EQ(timer.min_clock_period_ps(), rep.min_clock_period_ps);
  EXPECT_EQ(timer.critical_path(), rep.critical_path);
}

TEST(IncrementalSta, MatchesFullAnalyzeAfterRandomResizeSequences) {
  util::Rng rng(7001);
  const CellLibrary& lib = CellLibrary::nangate45();
  const CpaKind cpas[] = {CpaKind::kRippleCarry, CpaKind::kBrentKung,
                          CpaKind::kKoggeStone};
  for (int trial = 0; trial < 6; ++trial) {
    const MultiplierSpec spec{trial % 2 == 0 ? 8 : 6, PpgKind::kAnd, false};
    const auto tree = random_tree(spec, 1 + trial, rng);
    Netlist nl = ppg::build_multiplier(spec, tree, cpas[trial % 3]);
    sta::IncrementalTimer timer(nl, lib);
    expect_timer_matches_analyze(nl, lib, timer);

    for (int round = 0; round < 8; ++round) {
      // Random up/downsizes of a random gate subset.
      std::vector<GateId> changed;
      const int edits =
          1 + static_cast<int>(rng.next_below(5));
      for (int e = 0; e < edits; ++e) {
        const GateId g = static_cast<GateId>(
            rng.next_below(static_cast<std::uint64_t>(nl.num_gates())));
        auto& gate = nl.gates()[static_cast<std::size_t>(g)];
        const int nv = lib.num_variants(gate.kind);
        if (rng.next_below(2) == 0 && gate.variant + 1 < nv) {
          ++gate.variant;
        } else if (gate.variant > 0) {
          --gate.variant;
        } else {
          continue;  // nothing to change on this gate
        }
        changed.push_back(g);
      }
      timer.update(changed);
      expect_timer_matches_analyze(nl, lib, timer);
    }
  }
}

TEST(IncrementalSta, UpdateWithEmptyChangeSetIsNoop) {
  const MultiplierSpec spec{8, PpgKind::kAnd, false};
  const CellLibrary& lib = CellLibrary::nangate45();
  Netlist nl =
      ppg::build_multiplier(spec, ppg::initial_tree(spec), CpaKind::kSklansky);
  sta::IncrementalTimer timer(nl, lib);
  const double before = timer.critical_ps();
  timer.update({});
  EXPECT_DOUBLE_EQ(timer.critical_ps(), before);
  expect_timer_matches_analyze(nl, lib, timer);
}

TEST(IncrementalSta, SizingMatchesLegacyFullStaSizing) {
  util::Rng rng(7002);
  const CellLibrary& lib = CellLibrary::nangate45();
  const double targets[] = {0.01, 0.4, 0.8, 1e9};
  for (int trial = 0; trial < 3; ++trial) {
    const MultiplierSpec spec{8, PpgKind::kAnd, false};
    const auto tree = random_tree(spec, 2 + trial, rng);
    for (double target : targets) {
      Netlist fast = ppg::build_multiplier(spec, tree, CpaKind::kRippleCarry);
      Netlist slow = fast;
      synth::SynthesisOptions opts;
      opts.target_delay_ns = target;
      opts.incremental_sta = true;
      synth::size_for_target(fast, lib, opts);
      opts.incremental_sta = false;
      synth::size_for_target(slow, lib, opts);
      for (int g = 0; g < fast.num_gates(); ++g) {
        EXPECT_EQ(fast.gates()[static_cast<std::size_t>(g)].variant,
                  slow.gates()[static_cast<std::size_t>(g)].variant)
            << "gate " << g << " target " << target;
      }
    }
  }
}

TEST(PreparedDesign, SynthesisBitIdenticalToLegacyPipeline) {
  util::Rng rng(7003);
  for (int trial = 0; trial < 3; ++trial) {
    const MultiplierSpec spec{8, PpgKind::kAnd, trial == 2};
    const auto tree = random_tree(spec, 3, rng);
    const synth::PreparedDesign prep(spec, tree);
    for (double target : {0.05, 0.3, 0.6, 1.2, 1e9}) {
      const auto fast = prep.synthesize(target);
      const auto slow = synth::synthesize_design_legacy(spec, tree, target);
      EXPECT_DOUBLE_EQ(fast.area_um2, slow.area_um2) << "target " << target;
      EXPECT_DOUBLE_EQ(fast.delay_ns, slow.delay_ns) << "target " << target;
      EXPECT_DOUBLE_EQ(fast.power_mw, slow.power_mw) << "target " << target;
      EXPECT_EQ(fast.met_target, slow.met_target) << "target " << target;
      EXPECT_EQ(fast.cpa, slow.cpa) << "target " << target;
      EXPECT_EQ(fast.num_gates, slow.num_gates) << "target " << target;
    }
  }
}

// Pool size never changes a result: an evaluator on one synthesis
// thread and one on four agree per double on plain trees (batched
// drains) and on CPA-pinned points (per-target fan-out of the delta
// route).
TEST(ParallelEvaluation, BitIdenticalToSerialEvaluation) {
  const MultiplierSpec spec{8, PpgKind::kAnd, false};
  const std::vector<double> targets = {0.2, 0.5, 0.9, 2.0};

  synth::EvaluatorOptions serial_opts;
  serial_opts.synth_threads = 1;
  synth::DesignEvaluator serial(spec, targets, serial_opts);

  synth::EvaluatorOptions parallel_opts;
  parallel_opts.synth_threads = 4;
  synth::DesignEvaluator parallel(spec, targets, parallel_opts);

  auto expect_same = [](const synth::DesignEval& a,
                        const synth::DesignEval& b) {
    EXPECT_EQ(a.sum_area, b.sum_area);
    EXPECT_EQ(a.sum_delay, b.sum_delay);
    EXPECT_EQ(a.sum_power, b.sum_power);
    ASSERT_EQ(a.per_target.size(), b.per_target.size());
    for (std::size_t i = 0; i < a.per_target.size(); ++i) {
      EXPECT_EQ(a.per_target[i].area_um2, b.per_target[i].area_um2);
      EXPECT_EQ(a.per_target[i].delay_ns, b.per_target[i].delay_ns);
      EXPECT_EQ(a.per_target[i].power_mw, b.per_target[i].power_mw);
      EXPECT_EQ(a.per_target[i].cpa, b.per_target[i].cpa);
    }
  };

  util::Rng rng(7004);
  for (int trial = 0; trial < 4; ++trial) {
    const auto tree = random_tree(spec, 1 + trial, rng);
    expect_same(serial.evaluate(tree), parallel.evaluate(tree));
    ppg::DesignPoint pinned;
    pinned.ppg = spec.ppg;
    pinned.tree = tree;
    pinned.cpa = prefix::kogge_stone(spec.columns());
    expect_same(serial.evaluate(pinned), parallel.evaluate(pinned));
  }
}

}  // namespace
}  // namespace rlmul
