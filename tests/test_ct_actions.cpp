// Action-space and legalization tests (Sections III-D of the paper,
// Algorithm 2), including randomized property sweeps: any sequence of
// masked actions must keep the tree legal.

#include <gtest/gtest.h>

#include "ct/compressor_tree.hpp"
#include "ppg/ppg.hpp"
#include "util/rng.hpp"

namespace rlmul::ct {
namespace {

CompressorTree wallace_for(int bits) {
  return ppg::initial_tree({bits, ppg::PpgKind::kAnd, false});
}

TEST(ActionIndex, RoundTrips) {
  for (int idx = 0; idx < 8 * 8; ++idx) {
    EXPECT_EQ(action_index(action_from_index(idx)), idx);
  }
}

TEST(ActionSpace, SizeIsColumnsTimesKinds) {
  // The paper's space is 2N x 4 = 8N; with the 4:2 extension compiled
  // in, two more action kinds exist per column (masked off by default).
  const CompressorTree t = wallace_for(8);
  const auto mask = legal_action_mask(t);
  EXPECT_EQ(mask.size(),
            static_cast<std::size_t>(2 * 8 * kActionsPerColumn));
  // With the extension disabled, the 4:2 entries are never selectable,
  // so the *effective* space is the paper's 8N.
  for (int j = 0; j < t.columns(); ++j) {
    EXPECT_EQ(mask[static_cast<std::size_t>(action_index(
                  {j, ActionKind::kFuse32And22To42}))],
              0);
    EXPECT_EQ(mask[static_cast<std::size_t>(action_index(
                  {j, ActionKind::kSplit42To32And22}))],
              0);
  }
}

TEST(Actions, RemoveMissing22IsInvalid) {
  // Column 0 of an AND-based tree has height 1: no compressors at all.
  const CompressorTree t = wallace_for(4);
  ASSERT_EQ(t.c22[0], 0);
  EXPECT_FALSE(action_applicable(t, {0, ActionKind::kRemove22}));
  EXPECT_FALSE(action_applicable(t, {0, ActionKind::kReplace22With32}));
}

TEST(Actions, ResidualMustStayOneOrTwo) {
  // Column with f == 1 cannot have another 2:2 added (f would be 0);
  // column with f == 2 cannot have a 2:2 removed when it would reach 3.
  CompressorTree t{ColumnHeights{2, 2, 1}};
  t.c22 = {1, 0, 0};  // f = {1, 3->...}; fix column 1 first
  t.c22[1] = 1;       // f(1) = 2 + 1 - 1 = 2
  ASSERT_TRUE(t.legal());
  EXPECT_FALSE(action_applicable(t, {0, ActionKind::kAdd22}));   // f -> 0
  EXPECT_FALSE(action_applicable(t, {1, ActionKind::kRemove22}));  // f -> 3
  EXPECT_TRUE(action_applicable(t, {0, ActionKind::kRemove22}));  // f -> 2
}

TEST(Actions, ApplyAddKeepsLegal) {
  CompressorTree t = wallace_for(4);
  const auto mask = legal_action_mask(t);
  bool applied = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) {
      const CompressorTree next =
          apply_action(t, action_from_index(static_cast<int>(i)));
      EXPECT_TRUE(next.legal())
          << "action " << i << "\n" << to_string(next);
      applied = true;
    }
  }
  EXPECT_TRUE(applied);
}

TEST(Legalize, EarlyExitLeavesDownstreamUntouched) {
  // Replacements don't change carry-out, so downstream columns must be
  // exactly preserved.
  CompressorTree t = wallace_for(8);
  int col = -1;
  for (int j = 0; j < t.columns(); ++j) {
    if (t.c32[j] > 0 &&
        action_applicable(t, {j, ActionKind::kReplace32With22})) {
      col = j;
      break;
    }
  }
  ASSERT_GE(col, 0);
  const CompressorTree next =
      apply_action(t, {col, ActionKind::kReplace32With22});
  for (int j = col + 1; j < t.columns(); ++j) {
    EXPECT_EQ(next.c32[j], t.c32[j]);
    EXPECT_EQ(next.c22[j], t.c22[j]);
  }
}

TEST(Legalize, FixesOverCompression) {
  // Removing a 2:2 in column j reduces carries into j+1; legalization
  // must restore f(j+1) in {1,2}.
  CompressorTree t{ColumnHeights{2, 3, 1}};
  t.c22 = {1, 1, 0};
  t.c32 = {0, 1, 0};
  // f = {1, 3+1-2-1=1, 1+2-0=3}? Construct carefully instead:
  t = CompressorTree{ColumnHeights{2, 2, 2}};
  t.c22 = {1, 1, 1};
  ASSERT_TRUE(t.legal());  // f = {1, 2, 2}
  // Remove the 2:2 in column 0: f(0)=2, carry into 1 drops to 0: f(1)=1.
  const CompressorTree next = apply_action(t, {0, ActionKind::kRemove22});
  EXPECT_TRUE(next.legal()) << to_string(next);
}

struct SweepParam {
  int bits;
  ppg::PpgKind ppg;
  bool mac;
};

class RandomWalkTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomWalkTest, MaskedActionsPreserveLegality) {
  const auto param = GetParam();
  util::Rng rng(0xABCDEF12 + param.bits);
  CompressorTree t =
      ppg::initial_tree({param.bits, param.ppg, param.mac});
  ASSERT_TRUE(t.legal());
  for (int step = 0; step < 60; ++step) {
    const auto mask = legal_action_mask(t);
    std::vector<double> w(mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) w[i] = mask[i];
    const std::size_t pick = rng.sample_discrete(w);
    ASSERT_LT(pick, mask.size()) << "no legal actions at step " << step;
    t = apply_action(t, action_from_index(static_cast<int>(pick)));
    ASSERT_TRUE(t.legal()) << "step " << step << "\n" << to_string(t);
    // The stage assignment must remain schedulable as well.
    ASSERT_NO_THROW(assign_stages(t));
  }
}

TEST_P(RandomWalkTest, StagePruningMaskIsSubset) {
  const auto param = GetParam();
  CompressorTree t =
      ppg::initial_tree({param.bits, param.ppg, param.mac});
  const int bound = stage_count(t) + 1;
  const auto full = legal_action_mask(t);
  const auto pruned = legal_action_mask(t, bound);
  ASSERT_EQ(full.size(), pruned.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_LE(pruned[i], full[i]) << "action " << i;
    if (pruned[i] != 0) {
      const CompressorTree next =
          apply_action(t, action_from_index(static_cast<int>(i)));
      EXPECT_LE(stage_count(next), bound);
    }
  }
}

// Static storage zero-fills the padding bytes GoogleTest prints into the
// parameter's name; a braced temporary in Values() leaves them
// uninitialised, and the name would change from run to run.
constexpr SweepParam kSweepParams[] = {
    SweepParam{4, ppg::PpgKind::kAnd, false},
    SweepParam{8, ppg::PpgKind::kAnd, false},
    SweepParam{8, ppg::PpgKind::kBooth, false},
    SweepParam{8, ppg::PpgKind::kAnd, true},
    SweepParam{8, ppg::PpgKind::kBooth, true},
    SweepParam{16, ppg::PpgKind::kAnd, false},
    SweepParam{16, ppg::PpgKind::kBooth, false},
};

INSTANTIATE_TEST_SUITE_P(Specs, RandomWalkTest,
                         ::testing::ValuesIn(kSweepParams));

TEST(Legalize, RobustToArbitraryPerturbation) {
  // Even directly poking counts (beyond what single actions do) must be
  // recoverable by the generalized Algorithm 2.
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    CompressorTree t = wallace_for(8);
    const int j = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(t.columns())));
    if (rng.next_bool() && t.c32[j] > 0) {
      --t.c32[j];
    } else {
      ++t.c22[j];
    }
    // The perturbed column itself may be illegal AND its carry-out
    // changed, so both sweeps are needed: one to restore column j, one
    // to propagate the carry change (Algorithm 2 starts at C+1 for the
    // same reason — the action column is pre-validated, only its
    // carry-out moved).
    legalize(t, j);
    legalize(t, j + 1);
    for (int col = j + 1; col < t.columns(); ++col) {
      const int f = t.final_height(col);
      const int incoming = t.pp[col] + t.carries_into(col);
      if (incoming > 0) {
        EXPECT_GE(f, 1) << "trial " << trial << " col " << col;
        EXPECT_LE(f, 2) << "trial " << trial << " col " << col;
      }
    }
  }
}

}  // namespace
}  // namespace rlmul::ct
