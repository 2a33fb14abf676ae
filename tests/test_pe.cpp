// PE-array tests: functional correctness of the registered MAC cell
// (cycle-accurate simulation), sequential timing, and the scaling model
// against a really-composed small array.

#include "pe/pe_array.hpp"

#include <gtest/gtest.h>

#include "netlist/cell_library.hpp"
#include "ppg/ppg.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace rlmul::pe {
namespace {

using netlist::CpaKind;
using ppg::MultiplierSpec;
using ppg::PpgKind;

MultiplierSpec mac_spec(int bits) { return {bits, PpgKind::kAnd, true}; }
MultiplierSpec mul_spec(int bits) { return {bits, PpgKind::kAnd, false}; }

/// Drives a single PE for several cycles and checks the accumulator
/// behaves as acc' = acc + a_reg * b_reg (mod 2^{2N}).
void check_pe_function(const MultiplierSpec& spec, CpaKind cpa) {
  const auto tree = ppg::initial_tree(spec);
  const auto nl = build_pe_netlist(spec, tree, cpa);
  sim::Simulator simulator(nl);
  util::Rng rng(42);
  const int n = spec.bits;
  const std::uint64_t mask = (1ULL << n) - 1;
  const std::uint64_t out_mask =
      2 * n >= 64 ? ~0ULL : ((1ULL << (2 * n)) - 1);

  std::uint64_t model_acc = 0;
  std::uint64_t reg_a = 0;
  std::uint64_t reg_b = 0;
  simulator.reset_state();
  for (int cycle = 0; cycle < 6; ++cycle) {
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    for (int i = 0; i < n; ++i) {
      simulator.set_input(i, ((a >> i) & 1) ? ~0ULL : 0);
      simulator.set_input(n + i, ((b >> i) & 1) ? ~0ULL : 0);
    }
    simulator.run();
    // Registered outputs show the *previous* operands.
    std::uint64_t a_out = 0;
    std::uint64_t b_out = 0;
    for (int i = 0; i < n; ++i) {
      a_out |= (simulator.output(2 * i) & 1ULL) << i;
      b_out |= (simulator.output(2 * i + 1) & 1ULL) << i;
    }
    EXPECT_EQ(a_out, reg_a) << "cycle " << cycle;
    EXPECT_EQ(b_out, reg_b) << "cycle " << cycle;

    simulator.clock_edge();
    // Model: operand regs capture the inputs; the accumulator captures
    // acc + product of the operands registered *before* this edge.
    model_acc = (model_acc + reg_a * reg_b) & out_mask;
    reg_a = a;
    reg_b = b;
  }
  (void)model_acc;  // verified implicitly through the register chain
}

TEST(PeCell, RegistersPassOperandsThrough) {
  check_pe_function(mac_spec(4), CpaKind::kRippleCarry);
  check_pe_function(mul_spec(4), CpaKind::kKoggeStone);
}

/// Accumulator DFFs are created after the operand registers, in column
/// order; decode their Q nets into the accumulator value.
std::uint64_t read_accumulator(const netlist::Netlist& nl,
                               const sim::Simulator& simulator, int width) {
  std::vector<netlist::NetId> acc_q;
  for (const auto& g : nl.gates()) {
    if (g.kind == netlist::CellKind::kDff) acc_q.push_back(g.outputs[0]);
  }
  // Last `width` DFFs are the accumulator, LSB first.
  std::uint64_t value = 0;
  const std::size_t base = acc_q.size() - static_cast<std::size_t>(width);
  for (int j = 0; j < width; ++j) {
    value |= (simulator.net_value(acc_q[base + static_cast<std::size_t>(j)]) &
              1ULL)
             << j;
  }
  return value;
}

class PeAccumulateTest
    : public ::testing::TestWithParam<std::pair<MultiplierSpec, CpaKind>> {};

TEST_P(PeAccumulateTest, AccumulatorMatchesGoldenModel) {
  const auto [spec, cpa] = GetParam();
  const auto tree = ppg::initial_tree(spec);
  const auto nl = build_pe_netlist(spec, tree, cpa);
  sim::Simulator simulator(nl);
  simulator.reset_state();
  util::Rng rng(7);
  const int n = spec.bits;
  const std::uint64_t in_mask = (1ULL << n) - 1;
  const std::uint64_t out_mask = (1ULL << (2 * n)) - 1;

  std::uint64_t reg_a = 0;
  std::uint64_t reg_b = 0;
  std::uint64_t model_acc = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    const std::uint64_t a = rng.next() & in_mask;
    const std::uint64_t b = rng.next() & in_mask;
    for (int i = 0; i < n; ++i) {
      simulator.set_input(i, ((a >> i) & 1) ? ~0ULL : 0);
      simulator.set_input(n + i, ((b >> i) & 1) ? ~0ULL : 0);
    }
    simulator.run();
    EXPECT_EQ(read_accumulator(nl, simulator, 2 * n), model_acc)
        << "cycle " << cycle;
    simulator.clock_edge();
    model_acc = (model_acc + reg_a * reg_b) & out_mask;
    reg_a = a;
    reg_b = b;
  }
}

// Static storage zero-fills the padding bytes GoogleTest prints into the
// parameter's name; a braced temporary in Values() leaves them
// uninitialised, and the name would change from run to run.
constexpr std::pair<MultiplierSpec, CpaKind> kPeParams[] = {
    std::make_pair(MultiplierSpec{3, PpgKind::kAnd, true},
                   CpaKind::kRippleCarry),
    std::make_pair(MultiplierSpec{4, PpgKind::kAnd, true},
                   CpaKind::kKoggeStone),
    std::make_pair(MultiplierSpec{4, PpgKind::kBooth, true},
                   CpaKind::kRippleCarry),
    std::make_pair(MultiplierSpec{4, PpgKind::kAnd, false},
                   CpaKind::kRippleCarry),
    std::make_pair(MultiplierSpec{4, PpgKind::kBooth, false},
                   CpaKind::kKoggeStone),
};

INSTANTIATE_TEST_SUITE_P(Cells, PeAccumulateTest,
                         ::testing::ValuesIn(kPeParams));

TEST(PeCell, SequentialTimingDominatedByMacPath) {
  const auto spec = mac_spec(8);
  const auto tree = ppg::initial_tree(spec);
  auto nl = build_pe_netlist(spec, tree, CpaKind::kRippleCarry);
  const auto rep = sta::analyze(nl, netlist::CellLibrary::nangate45());
  EXPECT_GT(rep.min_clock_period_ps, 0.0);
  // The reg-to-reg MAC path must dominate the pass-through reg-to-out.
  EXPECT_GE(rep.min_clock_period_ps, rep.max_po_arrival_ps * 0.5);
}

TEST(PeArray, ComposedArrayMatchesScalingModel) {
  const auto spec = mac_spec(4);
  const auto tree = ppg::initial_tree(spec);
  const auto& lib = netlist::CellLibrary::nangate45();

  const auto pe = build_pe_netlist(spec, tree, CpaKind::kRippleCarry);
  const double pe_area = netlist::netlist_area(pe, lib);
  const auto array = build_pe_array_netlist(spec, tree,
                                            CpaKind::kRippleCarry, 2, 2);
  const double array_area = netlist::netlist_area(array, lib);
  EXPECT_NEAR(array_area, 4.0 * pe_area, 0.02 * array_area);

  // Same clock period: the array is locally connected.
  const double pe_period =
      sta::analyze(pe, lib).min_clock_period_ps;
  const double array_period =
      sta::analyze(array, lib).min_clock_period_ps;
  EXPECT_NEAR(array_period, pe_period, 0.05 * pe_period);
}

TEST(PeArray, SynthesisReportsArrayScale) {
  const auto spec = mac_spec(4);
  const auto tree = ppg::initial_tree(spec);
  PeArrayOptions opts;
  opts.rows = 8;
  opts.cols = 8;
  const auto res = synthesize_pe_array(spec, tree, 5.0, opts);
  const auto single = synthesize_pe_array(spec, tree, 5.0,
                                          PeArrayOptions{1, 1, 0.0});
  EXPECT_NEAR(res.area_um2,
              single.area_um2 * 64.0 * (1.0 + opts.wiring_overhead),
              1e-6 * res.area_um2);
  EXPECT_NEAR(res.delay_ns, single.delay_ns, 1e-12);
}

TEST(PeArray, TightClockCostsArea) {
  const auto spec = mac_spec(8);
  const auto tree = ppg::initial_tree(spec);
  const auto loose = synthesize_pe_array(spec, tree, 10.0);
  const auto tight =
      synthesize_pe_array(spec, tree, loose.delay_ns * 0.6);
  EXPECT_LE(tight.delay_ns, loose.delay_ns + 1e-12);
  EXPECT_GE(tight.area_um2, loose.area_um2 * 0.99);
}

TEST(PeArray, MacPeBeatsMultiplierPeOnDelay) {
  // The merged MAC removes the separate accumulate adder from the
  // register-to-register path, the Section III-C motivation.
  const auto mul = mul_spec(8);
  const auto mac = mac_spec(8);
  const auto r_mul =
      synthesize_pe_array(mul, ppg::initial_tree(mul), 0.01);
  const auto r_mac =
      synthesize_pe_array(mac, ppg::initial_tree(mac), 0.01);
  EXPECT_LT(r_mac.delay_ns, r_mul.delay_ns * 1.05);
}

}  // namespace
}  // namespace rlmul::pe
