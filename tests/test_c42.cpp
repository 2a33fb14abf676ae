// 4:2 compressor extension tests (the paper's "more compressor
// variants", K = 3): matrix-level neutrality of the fuse/split actions,
// stage assignment, netlist equivalence of trees containing 4:2 cells,
// and the area/delay motivation for the dedicated cell.

#include <gtest/gtest.h>

#include "ct/compressor_tree.hpp"
#include "netlist/cell_library.hpp"
#include "ppg/ppg.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "util/rng.hpp"

namespace rlmul::ct {
namespace {

using ppg::MultiplierSpec;
using ppg::PpgKind;

CompressorTree wallace_for(const MultiplierSpec& spec) {
  return ppg::initial_tree(spec);
}

/// Greedily fuse every {3:2, 2:2} pair into a 4:2.
CompressorTree fully_fused(CompressorTree t) {
  for (int j = 0; j < t.columns(); ++j) {
    while (t.c32[j] > 0 && t.c22[j] > 0) {
      t = apply_action(t, {j, ActionKind::kFuse32And22To42});
    }
  }
  return t;
}

TEST(C42, FuseIsResidualNeutral) {
  CompressorTree t = wallace_for({8, PpgKind::kAnd, false});
  const auto before = t.final_heights();
  int col = -1;
  for (int j = 0; j < t.columns(); ++j) {
    if (t.c32[j] > 0 && t.c22[j] > 0) col = j;
  }
  ASSERT_GE(col, 0) << "wallace tree should have a fusable pair";
  const CompressorTree fused =
      apply_action(t, {col, ActionKind::kFuse32And22To42});
  EXPECT_EQ(fused.final_heights(), before);
  EXPECT_EQ(fused.c42[col], 1);
  EXPECT_EQ(fused.c32[col], t.c32[col] - 1);
  EXPECT_EQ(fused.c22[col], t.c22[col] - 1);
  // And split is its exact inverse.
  const CompressorTree back =
      apply_action(fused, {col, ActionKind::kSplit42To32And22});
  EXPECT_EQ(back, t);
}

TEST(C42, FuseRequiresBothDonors) {
  CompressorTree t{ColumnHeights{4, 2, 1}};
  t.c32 = {1, 0, 0};
  t.c22 = {0, 1, 0};  // column 0 has 3:2 but no 2:2
  ASSERT_TRUE(t.legal());
  EXPECT_FALSE(action_applicable(t, {0, ActionKind::kFuse32And22To42}));
  EXPECT_FALSE(action_applicable(t, {0, ActionKind::kSplit42To32And22}));
}

TEST(C42, MaskExposesExtensionOnlyWhenEnabled) {
  const CompressorTree t = wallace_for({8, PpgKind::kAnd, false});
  const auto off = legal_action_mask(t, -1, false);
  const auto on = legal_action_mask(t, -1, true);
  int extension_on = 0;
  for (int j = 0; j < t.columns(); ++j) {
    const int fuse = action_index({j, ActionKind::kFuse32And22To42});
    EXPECT_EQ(off[static_cast<std::size_t>(fuse)], 0);
    extension_on += on[static_cast<std::size_t>(fuse)];
  }
  EXPECT_GT(extension_on, 0);
  // The paper's four actions are identical in both modes.
  for (int j = 0; j < t.columns(); ++j) {
    for (int k = 0; k < 4; ++k) {
      const int idx = action_index({j, static_cast<ActionKind>(k)});
      EXPECT_EQ(off[static_cast<std::size_t>(idx)],
                on[static_cast<std::size_t>(idx)]);
    }
  }
}

TEST(C42, StageAssignmentCoversAllKinds) {
  const CompressorTree fused =
      fully_fused(wallace_for({8, PpgKind::kAnd, false}));
  ASSERT_GT(fused.total_c42(), 0);
  ASSERT_TRUE(fused.legal());
  const StageAssignment sa = assign_stages(fused);
  for (int j = 0; j < fused.columns(); ++j) {
    int s42 = 0;
    for (int s = 0; s < sa.stages; ++s) {
      s42 += sa.t42[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)];
    }
    EXPECT_EQ(s42, fused.c42[j]) << "column " << j;
  }
}

struct C42Spec {
  MultiplierSpec spec;
  netlist::CpaKind cpa;
};

class C42EquivalenceTest : public ::testing::TestWithParam<C42Spec> {};

TEST_P(C42EquivalenceTest, FusedTreesStayEquivalent) {
  const auto [spec, cpa] = GetParam();
  const CompressorTree fused = fully_fused(wallace_for(spec));
  ASSERT_TRUE(fused.legal());
  const auto nl = ppg::build_multiplier(spec, fused, cpa);
  util::Rng rng(0xC42);
  const auto rep = sim::check_equivalence(nl, spec, rng);
  EXPECT_TRUE(rep.equivalent)
      << "a=" << rep.a << " b=" << rep.b << " got=" << rep.got
      << " expect=" << rep.expect;
  // The dedicated cell must actually be used.
  if (fused.total_c42() > 0) {
    EXPECT_GT(nl.kind_histogram()[static_cast<int>(netlist::CellKind::kC42)],
              0);
  }
}

// Static storage zero-fills the padding bytes GoogleTest prints into the
// parameter's name; a braced temporary in Values() leaves them
// uninitialised, and the name would change from run to run.
constexpr C42Spec kC42Specs[] = {
    C42Spec{{4, PpgKind::kAnd, false}, netlist::CpaKind::kRippleCarry},
    C42Spec{{8, PpgKind::kAnd, false}, netlist::CpaKind::kKoggeStone},
    C42Spec{{8, PpgKind::kBooth, false}, netlist::CpaKind::kRippleCarry},
    C42Spec{{8, PpgKind::kAnd, true}, netlist::CpaKind::kBrentKung},
    C42Spec{{16, PpgKind::kAnd, false}, netlist::CpaKind::kSklansky},
};

INSTANTIATE_TEST_SUITE_P(Specs, C42EquivalenceTest,
                         ::testing::ValuesIn(kC42Specs));

TEST(C42, RandomWalkWithExtensionStaysLegal) {
  util::Rng rng(777);
  const MultiplierSpec spec{8, PpgKind::kAnd, false};
  CompressorTree t = wallace_for(spec);
  for (int step = 0; step < 60; ++step) {
    const auto mask = legal_action_mask(t, -1, /*allow_42=*/true);
    std::vector<double> w(mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) w[i] = mask[i];
    const auto pick = rng.sample_discrete(w);
    ASSERT_LT(pick, mask.size());
    t = apply_action(t, action_from_index(static_cast<int>(pick)));
    ASSERT_TRUE(t.legal()) << to_string(t);
    ASSERT_NO_THROW(assign_stages(t));
  }
}

TEST(C42, DedicatedCellBeatsAdderPairOnAreaAndDepth) {
  const auto& lib = netlist::CellLibrary::nangate45();
  const double pair_area = lib.area(netlist::CellKind::kFa, 0) +
                           lib.area(netlist::CellKind::kHa, 0);
  EXPECT_LT(lib.area(netlist::CellKind::kC42, 0), pair_area);
  // Worst data arc through the dedicated cell is shorter than
  // FA(sum) + HA(sum) stacked.
  const double stacked =
      lib.intrinsic(netlist::CellKind::kFa, 0, 0) +
      lib.intrinsic(netlist::CellKind::kHa, 0, 0);
  EXPECT_LT(lib.intrinsic(netlist::CellKind::kC42, 0, 0), stacked);
}

TEST(C42, FusingReducesSynthesizedArea) {
  const MultiplierSpec spec{8, PpgKind::kAnd, false};
  const CompressorTree plain = wallace_for(spec);
  const CompressorTree fused = fully_fused(plain);
  ASSERT_GT(fused.total_c42(), 0);
  const auto res_plain = synth::synthesize_design(spec, plain, 10.0);
  const auto res_fused = synth::synthesize_design(spec, fused, 10.0);
  EXPECT_LT(res_fused.area_um2, res_plain.area_um2);
}

}  // namespace
}  // namespace rlmul::ct
