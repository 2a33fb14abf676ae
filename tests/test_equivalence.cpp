// Functional-correctness tests: every generated multiplier/MAC netlist
// must compute the golden function (the role ABC `cec` plays in the
// paper's flow). Exhaustive for small widths, randomized + corner-case
// for larger ones, across PPG kinds, CPA kinds, legacy trees, GOMIL
// trees and randomly mutated trees.

#include <gtest/gtest.h>

#include "baselines/gomil.hpp"
#include "ct/compressor_tree.hpp"
#include "netlist/ct_builder.hpp"
#include "ppg/ppg.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rlmul::sim {
namespace {

using ct::CompressorTree;
using netlist::CpaKind;
using ppg::MultiplierSpec;
using ppg::PpgKind;

void expect_equivalent(const MultiplierSpec& spec, const CompressorTree& tree,
                       CpaKind cpa, std::uint64_t seed = 5) {
  const auto nl = ppg::build_multiplier(spec, tree, cpa);
  util::Rng rng(seed);
  const auto rep = check_equivalence(nl, spec, rng,
                                     /*exhaustive_limit=*/1 << 16,
                                     /*random_vectors=*/4096);
  EXPECT_TRUE(rep.equivalent)
      << "bits=" << spec.bits << " ppg=" << ppg::ppg_kind_name(spec.ppg)
      << " mac=" << spec.mac << " a=" << rep.a << " b=" << rep.b
      << " acc=" << rep.acc << " got=" << rep.got
      << " expect=" << rep.expect << "\n"
      << ct::to_string(tree);
}

TEST(GoldenModel, Basics) {
  EXPECT_EQ(golden_product(3, 5, 4), 15u);
  EXPECT_EQ(golden_product(15, 15, 4), 225u);
  EXPECT_EQ(golden_product(255, 255, 8), 65025u);
  EXPECT_EQ(golden_mac(3, 5, 7, 4), 22u);
  // Wrap-around accumulate at 2N bits.
  EXPECT_EQ(golden_mac(15, 15, 255, 4), (225u + 255u) & 0xFF);
}

struct SpecParam {
  int bits;
  PpgKind ppg;
  bool mac;
  CpaKind cpa;
};

std::string param_name(const ::testing::TestParamInfo<SpecParam>& info) {
  const auto& p = info.param;
  std::string s = std::to_string(p.bits) + "b_";
  s += ppg::ppg_kind_name(p.ppg);
  s += p.mac ? "_mac" : "_mul";
  s += p.cpa == CpaKind::kRippleCarry ? "_ripple" : "_ks";
  return s;
}

class EquivalenceTest : public ::testing::TestWithParam<SpecParam> {};

TEST_P(EquivalenceTest, WallaceTree) {
  const auto p = GetParam();
  const MultiplierSpec spec{p.bits, p.ppg, p.mac};
  expect_equivalent(spec, ct::wallace_tree(ppg::pp_heights(spec)), p.cpa);
}

TEST_P(EquivalenceTest, DaddaTree) {
  const auto p = GetParam();
  const MultiplierSpec spec{p.bits, p.ppg, p.mac};
  expect_equivalent(spec, ct::dadda_tree(ppg::pp_heights(spec)), p.cpa);
}

TEST_P(EquivalenceTest, RandomlyMutatedTrees) {
  const auto p = GetParam();
  const MultiplierSpec spec{p.bits, p.ppg, p.mac};
  util::Rng rng(0x5151 + p.bits);
  CompressorTree tree = ppg::initial_tree(spec);
  for (int walk = 0; walk < 3; ++walk) {
    for (int step = 0; step < 8; ++step) {
      const auto mask = ct::legal_action_mask(tree);
      std::vector<double> w(mask.size());
      for (std::size_t i = 0; i < mask.size(); ++i) w[i] = mask[i];
      const auto pick = rng.sample_discrete(w);
      ASSERT_LT(pick, mask.size());
      tree = ct::apply_action(tree, ct::action_from_index(static_cast<int>(pick)));
    }
    expect_equivalent(spec, tree, p.cpa, 0x77 + walk);
  }
}

// Static storage zero-fills the padding bytes GoogleTest prints into the
// parameter's name; a braced temporary in Values() leaves them
// uninitialised, and the name would change from run to run.
constexpr SpecParam kSpecParams[] = {
    SpecParam{2, PpgKind::kAnd, false, CpaKind::kRippleCarry},
    SpecParam{3, PpgKind::kAnd, false, CpaKind::kKoggeStone},
    SpecParam{4, PpgKind::kAnd, false, CpaKind::kRippleCarry},
    SpecParam{4, PpgKind::kAnd, false, CpaKind::kKoggeStone},
    SpecParam{4, PpgKind::kBooth, false, CpaKind::kRippleCarry},
    SpecParam{4, PpgKind::kBooth, false, CpaKind::kKoggeStone},
    SpecParam{5, PpgKind::kBooth, false, CpaKind::kRippleCarry},
    SpecParam{4, PpgKind::kAnd, true, CpaKind::kRippleCarry},
    SpecParam{4, PpgKind::kBooth, true, CpaKind::kKoggeStone},
    SpecParam{8, PpgKind::kAnd, false, CpaKind::kRippleCarry},
    SpecParam{8, PpgKind::kAnd, false, CpaKind::kKoggeStone},
    SpecParam{8, PpgKind::kBooth, false, CpaKind::kRippleCarry},
    SpecParam{8, PpgKind::kBooth, false, CpaKind::kKoggeStone},
    SpecParam{8, PpgKind::kAnd, true, CpaKind::kKoggeStone},
    SpecParam{8, PpgKind::kBooth, true, CpaKind::kRippleCarry},
    SpecParam{16, PpgKind::kAnd, false, CpaKind::kKoggeStone},
    SpecParam{16, PpgKind::kBooth, false, CpaKind::kRippleCarry},
    SpecParam{16, PpgKind::kAnd, true, CpaKind::kRippleCarry},
    SpecParam{16, PpgKind::kBooth, true, CpaKind::kKoggeStone},
    SpecParam{4, PpgKind::kBaughWooley, false, CpaKind::kRippleCarry},
    SpecParam{5, PpgKind::kBaughWooley, false, CpaKind::kKoggeStone},
    SpecParam{8, PpgKind::kBaughWooley, false, CpaKind::kRippleCarry},
    SpecParam{8, PpgKind::kBaughWooley, true, CpaKind::kKoggeStone},
    SpecParam{16, PpgKind::kBaughWooley, false, CpaKind::kKoggeStone},
};

INSTANTIATE_TEST_SUITE_P(Specs, EquivalenceTest,
                         ::testing::ValuesIn(kSpecParams), param_name);

TEST(GoldenModel, SignedProduct) {
  // 4-bit signed: -8..7.
  EXPECT_EQ(golden_signed_product(0x8, 0x8, 4), 64u);          // -8*-8
  EXPECT_EQ(golden_signed_product(0xF, 0x2, 4), 0xFEu);        // -1*2=-2
  EXPECT_EQ(golden_signed_product(0x7, 0x7, 4), 49u);
  EXPECT_EQ(golden_signed_product(0xF, 0xF, 4), 1u);           // -1*-1
}

TEST(Equivalence, GomilTreesAreCorrect) {
  for (int bits : {4, 8}) {
    const MultiplierSpec spec{bits, PpgKind::kAnd, false};
    const CompressorTree tree = baselines::gomil_tree(spec);
    ASSERT_TRUE(tree.legal());
    expect_equivalent(spec, tree, CpaKind::kRippleCarry);
    expect_equivalent(spec, tree, CpaKind::kKoggeStone);
  }
}

TEST(Equivalence, DetectsBrokenNetlist) {
  // Sanity: the checker actually fails on a wrong circuit.
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  auto nl = ppg::build_multiplier(spec, ppg::initial_tree(spec),
                                  CpaKind::kRippleCarry);
  // Corrupt one gate: swap an AND into an OR.
  for (auto& g : nl.gates()) {
    if (g.kind == netlist::CellKind::kAnd2) {
      g.kind = netlist::CellKind::kOr2;
      break;
    }
  }
  util::Rng rng(1);
  const auto rep = check_equivalence(nl, spec, rng, 1 << 16, 1024);
  EXPECT_FALSE(rep.equivalent);
}

TEST(Equivalence, ReportsCounterexample) {
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  auto nl = ppg::build_multiplier(spec, ppg::initial_tree(spec),
                                  CpaKind::kRippleCarry);
  for (auto& g : nl.gates()) {
    if (g.kind == netlist::CellKind::kAnd2) {
      g.kind = netlist::CellKind::kOr2;
      break;
    }
  }
  util::Rng rng(1);
  const auto rep = check_equivalence(nl, spec, rng, 1 << 16, 1024);
  ASSERT_FALSE(rep.equivalent);
  EXPECT_NE(rep.got, rep.expect);
  EXPECT_EQ(rep.expect, golden_product(rep.a, rep.b, 4));
}

TEST(Simulator, InputIndexLookup) {
  const MultiplierSpec spec{4, PpgKind::kAnd, false};
  const auto nl = ppg::build_multiplier(spec, ppg::initial_tree(spec),
                                        CpaKind::kRippleCarry);
  Simulator sim(nl);
  EXPECT_EQ(sim.input_index("a0"), 0);
  EXPECT_EQ(sim.input_index("b0"), 4);
  EXPECT_EQ(sim.input_index("nope"), -1);
  EXPECT_EQ(sim.num_outputs(), 8);
}

}  // namespace
}  // namespace rlmul::sim
