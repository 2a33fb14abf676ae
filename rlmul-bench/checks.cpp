#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <set>

#include "sim/simulator.hpp"
#include "synth/synth.hpp"
#include "util/rng.hpp"

namespace rlmul::bench {

namespace {

std::string mismatch(const char* what, std::size_t target, double got,
                     double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s mismatch at target %zu: %.17g vs %.17g",
                what, target, got, want);
  return buf;
}

}  // namespace

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

HvRef hv_reference(const synth::DesignEval& wallace) {
  HvRef ref{0.0, 0.0};
  for (const synth::SynthesisResult& r : wallace.per_target) {
    ref.x = std::max(ref.x, r.area_um2);
    ref.y = std::max(ref.y, r.delay_ns);
  }
  ref.x *= 1.1;
  ref.y *= 1.1;
  return ref;
}

double normalized_hypervolume(const std::vector<pareto::Point>& points,
                              const HvRef& ref) {
  return pareto::hypervolume(pareto::pareto_filter(points), ref.x, ref.y) /
         (ref.x * ref.y);
}

std::string check_best_design(const ppg::MultiplierSpec& spec,
                              const std::vector<double>& targets,
                              const ppg::DesignPoint& point,
                              const synth::DesignEval& reported) {
  // PPA, re-synthesized from scratch: tree points through the legacy
  // oracle pipeline, joint points through the point overload.
  const bool joint = point.cpa_pinned() || point.ppg != spec.ppg;
  if (reported.per_target.size() != targets.size()) {
    return "per-target result count differs from the target count";
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const synth::SynthesisResult fresh =
        joint ? synth::synthesize_design(spec, point, targets[i])
              : synth::synthesize_design_legacy(spec, point.tree, targets[i]);
    const synth::SynthesisResult& got = reported.per_target[i];
    if (!same_bits(got.area_um2, fresh.area_um2)) {
      return mismatch("area", i, got.area_um2, fresh.area_um2);
    }
    if (!same_bits(got.delay_ns, fresh.delay_ns)) {
      return mismatch("delay", i, got.delay_ns, fresh.delay_ns);
    }
    if (!same_bits(got.power_mw, fresh.power_mw)) {
      return mismatch("power", i, got.power_mw, fresh.power_mw);
    }
    if (got.met_target != fresh.met_target || got.cpa != fresh.cpa ||
        got.num_gates != fresh.num_gates) {
      return mismatch("met/cpa/gates", i, got.num_gates, fresh.num_gates);
    }
  }

  // Functional equivalence of every netlist the result stands for.
  const ppg::MultiplierSpec resolved = point.resolved_spec(spec);
  std::vector<netlist::Netlist> netlists;
  if (point.cpa_pinned()) {
    netlists.push_back(ppg::build_multiplier(resolved, point.tree, point.cpa));
  } else {
    std::set<netlist::CpaKind> kinds;
    for (const synth::SynthesisResult& r : reported.per_target) {
      kinds.insert(r.cpa);
    }
    for (netlist::CpaKind k : kinds) {
      netlists.push_back(ppg::build_multiplier(resolved, point.tree, k));
    }
  }
  for (const netlist::Netlist& nl : netlists) {
    util::Rng rng(0xCEC0 + static_cast<std::uint64_t>(resolved.bits));
    const sim::EquivalenceReport rep =
        sim::check_equivalence(nl, resolved, rng);
    if (!rep.equivalent) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "not a multiplier: a=%llu b=%llu got=%llu expect=%llu",
                    static_cast<unsigned long long>(rep.a),
                    static_cast<unsigned long long>(rep.b),
                    static_cast<unsigned long long>(rep.got),
                    static_cast<unsigned long long>(rep.expect));
      return buf;
    }
  }
  return "";
}

}  // namespace rlmul::bench
