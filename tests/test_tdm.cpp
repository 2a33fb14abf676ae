// TDM (Three-Dimensional-Method-style) signal ordering tests: the
// reordered tree must stay functionally identical while reducing the
// STA critical delay for the same compressor matrix.

#include <gtest/gtest.h>

#include "netlist/cell_library.hpp"
#include "netlist/ct_builder.hpp"
#include "ppg/ppg.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace rlmul::netlist {
namespace {

using ppg::MultiplierSpec;
using ppg::PpgKind;

struct TdmParam {
  MultiplierSpec spec;
  CpaKind cpa;
};

class TdmTest : public ::testing::TestWithParam<TdmParam> {};

TEST_P(TdmTest, ReorderedTreeStaysEquivalent) {
  const auto [spec, cpa] = GetParam();
  const auto tree = ppg::initial_tree(spec);
  CtBuildOptions opts;
  opts.tdm_ordering = true;
  const auto nl = ppg::build_multiplier(spec, tree, cpa, opts);
  util::Rng rng(0x7D);
  const auto rep = sim::check_equivalence(nl, spec, rng);
  EXPECT_TRUE(rep.equivalent)
      << "a=" << rep.a << " b=" << rep.b << " got=" << rep.got
      << " expect=" << rep.expect;
}

TEST_P(TdmTest, SameCellBudgetAsFifoOrder) {
  const auto [spec, cpa] = GetParam();
  const auto tree = ppg::initial_tree(spec);
  CtBuildOptions tdm;
  tdm.tdm_ordering = true;
  const auto plain = ppg::build_multiplier(spec, tree, cpa);
  const auto ordered = ppg::build_multiplier(spec, tree, cpa, tdm);
  // Ordering permutes wiring, it must not change what is instantiated.
  EXPECT_EQ(plain.kind_histogram(), ordered.kind_histogram());
}

// Static storage zero-fills the padding bytes GoogleTest prints into the
// parameter's name; a braced temporary in Values() leaves them
// uninitialised, and the name would change from run to run.
constexpr TdmParam kTdmParams[] = {
    TdmParam{{4, PpgKind::kAnd, false}, CpaKind::kRippleCarry},
    TdmParam{{8, PpgKind::kAnd, false}, CpaKind::kKoggeStone},
    TdmParam{{8, PpgKind::kBooth, false}, CpaKind::kRippleCarry},
    TdmParam{{8, PpgKind::kAnd, true}, CpaKind::kBrentKung},
    TdmParam{{16, PpgKind::kAnd, false}, CpaKind::kKoggeStone},
};

INSTANTIATE_TEST_SUITE_P(Specs, TdmTest,
                         ::testing::ValuesIn(kTdmParams));

TEST(Tdm, ReducesOrMatchesCriticalDelayAt16Bits) {
  const MultiplierSpec spec{16, PpgKind::kAnd, false};
  const auto tree = ppg::initial_tree(spec);
  const auto& lib = CellLibrary::nangate45();
  CtBuildOptions tdm;
  tdm.tdm_ordering = true;
  const auto plain = ppg::build_multiplier(spec, tree, CpaKind::kKoggeStone);
  const auto ordered =
      ppg::build_multiplier(spec, tree, CpaKind::kKoggeStone, tdm);
  const double d_plain = sta::analyze(plain, lib).critical_ps;
  const double d_tdm = sta::analyze(ordered, lib).critical_ps;
  // Slack-aware pin assignment should not lose; usually it wins a few
  // percent on deep trees.
  EXPECT_LE(d_tdm, d_plain * 1.01)
      << "plain " << d_plain << " ps vs tdm " << d_tdm << " ps";
}

TEST(Tdm, DeterministicOutput) {
  const MultiplierSpec spec{8, PpgKind::kAnd, false};
  const auto tree = ppg::initial_tree(spec);
  CtBuildOptions tdm;
  tdm.tdm_ordering = true;
  const auto a = ppg::build_multiplier(spec, tree, CpaKind::kRippleCarry, tdm);
  const auto b = ppg::build_multiplier(spec, tree, CpaKind::kRippleCarry, tdm);
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (int g = 0; g < a.num_gates(); ++g) {
    EXPECT_EQ(a.gates()[static_cast<std::size_t>(g)].inputs,
              b.gates()[static_cast<std::size_t>(g)].inputs);
  }
}

}  // namespace
}  // namespace rlmul::netlist
