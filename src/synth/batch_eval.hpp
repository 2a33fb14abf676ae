#pragma once
// Batched design evaluation: K candidate designs flow through the
// reward oracle as one pipeline instead of K independent synthesis
// calls. This is DesignEvaluator's route for plain designs (a tree, or
// a point with the spec's PPG family and no pinned CPA). Each design in
// a batch still prepares its own PPG + compressor-tree prefix — lanes
// stride over targets, not designs, so the batch pipeline never shares
// structure across designs. (Sharing across designs is the delta
// route's job, which extended points — PPG toggles and pinned CPAs —
// take: a ParentHint lets PreparedDesign clone a retained parent's
// netlist regions and rebuild only the changed cone. Plain designs
// carry no hint here.) Within a design all delay targets are sized
// together as lanes of one sta::BatchTimer per CPA architecture: one
// flattened netlist structure, one full timing pass broadcast to every
// lane, and masked strided sweeps instead of per-target netlist copies
// and per-target priority-queue updates. That removes the dominant
// costs of per-target sizing — the per-(CPA, target) netlist copy
// (~thousands of gate-vector allocations per design) and the repeated
// full propagation.
//
// Bit-exactness: every per-lane decision (upsize set, downsize set,
// revert, CPA selection, power) mirrors the PreparedDesign::synthesize
// / synthesize_with_timer code path operation-for-operation, and lanes
// evolve independently, so per-design SynthesisResults are
// byte-identical to synthesize_design (tests/test_batch_eval.cpp
// enforces this field-by-field against the reference pipelines).

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "ct/compressor_tree.hpp"
#include "netlist/netlist.hpp"
#include "ppg/ppg.hpp"
#include "synth/synth.hpp"
#include "util/thread_pool.hpp"

namespace rlmul::synth {

/// The equivalence gate (the paper's Yosys+ABC `cec` step) both
/// evaluation routes run on a new design's menu entry 0 when
/// EvaluatorOptions::verify_functionality is on: `vectors` random
/// simulation vectors seeded from the design's evaluation key `key`.
/// Throws std::runtime_error on a functional mismatch — a generator
/// bug, never a scoring matter.
void verify_equivalence(const netlist::Netlist& nl,
                        const ppg::MultiplierSpec& spec,
                        const std::string& key, std::uint64_t vectors);

struct BatchOptions {
  /// Mirrors EvaluatorOptions::verify_functionality: the design runs
  /// verify_equivalence before sizing.
  bool verify_functionality = false;
  std::uint64_t verify_vectors = 2048;
};

/// One design's outcome inside a batch. `error` is set (and
/// `per_target` empty) when the design threw — the equivalence gate is
/// the only expected source — so one bad design never poisons its
/// batchmates.
struct BatchResult {
  std::vector<SynthesisResult> per_target;
  std::exception_ptr error;
};

/// Evaluates batches of candidate trees sharing one spec + target
/// menu. Stateless between calls apart from per-worker scratch arenas;
/// thread-safe (concurrent evaluate() calls only share the pool).
class BatchEvaluator {
 public:
  BatchEvaluator(ppg::MultiplierSpec spec, std::vector<double> targets,
                 const BatchOptions& opts = {});

  const std::vector<double>& targets() const { return targets_; }

  /// Synthesizes every tree against the full target menu. `keys` are
  /// the trees' canonical keys (keys[i] == trees[i].key(); passed in
  /// because the caller already computed them) and seed the
  /// verify_equivalence RNG.
  /// Designs fan out as one pool task each; within a design the
  /// targets are lanes of one batched sweep. Results come back in
  /// input order.
  std::vector<BatchResult> evaluate(const std::vector<ct::CompressorTree>& trees,
                                    const std::vector<std::string>& keys,
                                    util::ThreadPool& pool) const;

  /// Single-design entry (used by the tests to probe the batched
  /// machinery without a pool).
  BatchResult evaluate_one(const ct::CompressorTree& tree,
                           const std::string& key) const;

 private:
  ppg::MultiplierSpec spec_;
  std::vector<double> targets_;
  BatchOptions opts_;
};

}  // namespace rlmul::synth
