#pragma once
// Correctness gate of rlmul-bench: every best design a search reports
// is re-synthesized from scratch and compared per double against what
// the search reported, and its netlist must pass the simulation
// equivalence check (the repo's stand-in for the paper's `cec` step).

#include <string>
#include <vector>

#include "pareto/pareto.hpp"
#include "ppg/ppg.hpp"
#include "synth/evaluator.hpp"

namespace rlmul::bench {

/// Area–delay reference corner from the Wallace design's per-target
/// results (1.1x its worst area and worst delay).
struct HvRef {
  double x = 1.0;
  double y = 1.0;
};
HvRef hv_reference(const synth::DesignEval& wallace);

/// Hypervolume of `points` against `ref`, normalized by the reference
/// box (1.0 = the whole box is dominated).
double normalized_hypervolume(const std::vector<pareto::Point>& points,
                              const HvRef& ref);

/// Bitwise double equality (the gate compares results per double).
bool same_bits(double a, double b);

/// Checks one reported best design: `reported` is what the search's
/// evaluator returned for `point` under `spec` and `targets`. Returns
/// "" when every check passes, else a one-line reason.
std::string check_best_design(const ppg::MultiplierSpec& spec,
                              const std::vector<double>& targets,
                              const ppg::DesignPoint& point,
                              const synth::DesignEval& reported);

}  // namespace rlmul::bench
