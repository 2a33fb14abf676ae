// Metric-regression tests: synthesized area/delay for the canonical
// designs must stay inside generous bands around the values the
// calibrated library produces (and the paper's NanGate numbers echo).
// These bands catch accidental library or flow regressions without
// over-fitting exact constants.

#include <gtest/gtest.h>

#include "ct/compressor_tree.hpp"
#include "ppg/ppg.hpp"
#include "synth/synth.hpp"

namespace rlmul::synth {
namespace {

using ppg::MultiplierSpec;
using ppg::PpgKind;

struct Band {
  MultiplierSpec spec;
  double area_lo, area_hi;   ///< relaxed (min-area) synthesis, um^2
  double delay_lo, delay_hi; ///< relaxed critical delay, ns
};

class GoldenMetricsTest : public ::testing::TestWithParam<Band> {};

TEST_P(GoldenMetricsTest, RelaxedSynthesisWithinBand) {
  const Band& band = GetParam();
  const auto tree = ppg::initial_tree(band.spec);
  const auto res = synthesize_design(band.spec, tree, 1e9);
  EXPECT_GE(res.area_um2, band.area_lo) << "area too small";
  EXPECT_LE(res.area_um2, band.area_hi) << "area too large";
  EXPECT_GE(res.delay_ns, band.delay_lo) << "delay too small";
  EXPECT_LE(res.delay_ns, band.delay_hi) << "delay too large";
}

// Reference (Wallace, min-area): 8b AND ~329 um^2 / 0.79 ns;
// 16b AND ~1410 / 1.53; MBE ~20-25% larger and slower at these widths.
// Paper's Table I (their testbed): 427/0.853 and 1812/1.41 — same
// ballpark, which is all the substitution promises.
// Static storage zero-fills the padding bytes GoogleTest prints into the
// parameter's name; a braced temporary in Values() leaves them
// uninitialised, and the name would change from run to run.
constexpr Band kBands[] = {
    Band{{8, PpgKind::kAnd, false}, 230, 460, 0.55, 1.10},
    Band{{8, PpgKind::kBooth, false}, 280, 570, 0.65, 1.40},
    Band{{16, PpgKind::kAnd, false}, 1000, 2000, 1.05, 2.15},
    Band{{16, PpgKind::kBooth, false}, 1030, 2100, 1.20, 2.55},
    Band{{8, PpgKind::kAnd, true}, 260, 540, 0.60, 1.25},
    Band{{8, PpgKind::kBaughWooley, false}, 230, 480, 0.55, 1.15},
};

INSTANTIATE_TEST_SUITE_P(Designs, GoldenMetricsTest,
                         ::testing::ValuesIn(kBands));

TEST(GoldenRatios, SixteenBitIsRoughlyFourTimesEightBitArea) {
  const MultiplierSpec s8{8, PpgKind::kAnd, false};
  const MultiplierSpec s16{16, PpgKind::kAnd, false};
  const double a8 =
      synthesize_design(s8, ppg::initial_tree(s8), 1e9).area_um2;
  const double a16 =
      synthesize_design(s16, ppg::initial_tree(s16), 1e9).area_um2;
  EXPECT_GT(a16 / a8, 3.0);
  EXPECT_LT(a16 / a8, 6.0);
}

TEST(GoldenRatios, TightSynthesisSpeedupIsBounded) {
  // The achievable speedup from sizing + prefix CPA is large but not
  // absurd; a broken delay model usually explodes one way or the other.
  const MultiplierSpec spec{16, PpgKind::kAnd, false};
  const auto tree = ppg::initial_tree(spec);
  const auto relaxed = synthesize_design(spec, tree, 1e9);
  const auto tight = synthesize_design(spec, tree, 0.01);
  const double speedup = relaxed.delay_ns / tight.delay_ns;
  EXPECT_GT(speedup, 1.3);
  EXPECT_LT(speedup, 5.0);
  const double area_cost = tight.area_um2 / relaxed.area_um2;
  EXPECT_GT(area_cost, 1.05);
  EXPECT_LT(area_cost, 3.5);
}

TEST(GoldenRatios, PowerTracksAreaAcrossWidths) {
  const MultiplierSpec s8{8, PpgKind::kAnd, false};
  const MultiplierSpec s16{16, PpgKind::kAnd, false};
  const auto r8 = synthesize_design(s8, ppg::initial_tree(s8), 1.0);
  const auto r16 = synthesize_design(s16, ppg::initial_tree(s16), 1.0);
  const double power_ratio = r16.power_mw / r8.power_mw;
  const double area_ratio = r16.area_um2 / r8.area_um2;
  EXPECT_GT(power_ratio, 0.5 * area_ratio);
  EXPECT_LT(power_ratio, 2.0 * area_ratio);
}

}  // namespace
}  // namespace rlmul::synth
