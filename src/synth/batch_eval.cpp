#include "synth/batch_eval.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <future>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nt/arena.hpp"
#include "sim/simulator.hpp"
#include "sta/batch_sweep.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"

namespace rlmul::synth {

using netlist::CellLibrary;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// One delay target's trajectory through the CPA menu, plus the winner
/// snapshot (variants + loads) that power is computed from at the end.
struct LaneState {
  double target_ps = 0.0;
  bool active = true;  ///< still walking the CPA menu
  bool have = false;
  SynthesisResult best;
  std::size_t best_cpa = 0;
  std::vector<std::int32_t> best_variants;
  std::vector<double> best_loads;
};

/// Mirror of estimate_power over a winner snapshot: same loop order,
/// same expressions, with the timer-maintained loads standing in for
/// compute_loads (they are bit-identical by the incremental-STA load
/// invariant) and the connectivity-only signal probabilities shared
/// across targets.
double power_from_snapshot(const Netlist& nl, const CellLibrary& lib,
                           const std::vector<double>& p,
                           const std::vector<double>& load,
                           const std::vector<std::int32_t>& variants,
                           double clock_ns) {
  PowerReport rep;
  if (clock_ns <= 0.0) return rep.total_mw();
  const double freq_ghz = 1.0 / clock_ns;
  // Flat copies of the library's per-kind tables: a few dozen accessor
  // calls up front instead of one per gate/output in the sum below (the
  // table entries are the very doubles the accessors return).
  const int kinds = netlist::num_cell_kinds();
  std::vector<std::int32_t> kb(static_cast<std::size_t>(kinds) + 1, 0);
  for (int k = 0; k < kinds; ++k) {
    kb[static_cast<std::size_t>(k) + 1] =
        kb[static_cast<std::size_t>(k)] +
        lib.num_variants(static_cast<netlist::CellKind>(k));
  }
  std::vector<double> leak(static_cast<std::size_t>(kb[static_cast<
      std::size_t>(kinds)]));
  std::vector<double> ienergy(static_cast<std::size_t>(kinds));
  for (int k = 0; k < kinds; ++k) {
    const auto ck = static_cast<netlist::CellKind>(k);
    ienergy[static_cast<std::size_t>(k)] = lib.internal_energy(ck);
    for (int v = 0; v < lib.num_variants(ck); ++v) {
      leak[static_cast<std::size_t>(kb[static_cast<std::size_t>(k)] + v)] =
          lib.leakage(ck, v);
    }
  }
  double switching_fj = 0.0;
  double internal_fj = 0.0;
  double leakage_nw = 0.0;
  const auto& gates = nl.gates();
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    const std::size_t k = static_cast<std::size_t>(g.kind);
    leakage_nw += leak[static_cast<std::size_t>(kb[k]) +
                       static_cast<std::size_t>(variants[gi])];
    for (NetId out : g.outputs) {
      const double prob = p[static_cast<std::size_t>(out)];
      const double activity = 2.0 * prob * (1.0 - prob);
      switching_fj += 0.5 * activity * load[static_cast<std::size_t>(out)] *
                      kVddVolts * kVddVolts;
      internal_fj += activity * ienergy[k];
    }
  }
  rep.dynamic_mw = (switching_fj + internal_fj) * freq_ghz * 1e-3;
  rep.leakage_mw = leakage_nw * 1e-6;
  return rep.total_mw();
}

bool any_nonempty(const std::vector<std::vector<GateId>>& lists) {
  for (const auto& l : lists) {
    if (!l.empty()) return true;
  }
  return false;
}

/// The batched mirror of PreparedDesign::synthesize for every target at
/// once: per CPA architecture, all still-active targets size together
/// as lanes of one BatchTimer. Lanes evolve independently (private
/// variant/arrival/load state), so each lane's decision trajectory is
/// identical to a solo synthesize_with_timer run and the results are
/// bit-identical.
std::vector<SynthesisResult> synthesize_all_targets(
    const ppg::MultiplierSpec& spec, const ct::CompressorTree& tree,
    const std::string& key, const std::vector<double>& targets,
    const BatchOptions& opts) {
  const CellLibrary& lib = CellLibrary::nangate45();
  const PreparedDesign prep(spec, tree);

  if (opts.verify_functionality) {
    verify_equivalence(prep.netlist_at(0), spec, key, opts.verify_vectors);
  }

  const SynthesisOptions sopts;  // defaults, as PreparedDesign::synthesize
  const int T = static_cast<int>(targets.size());
  std::vector<LaneState> lanes_state(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    lanes_state[static_cast<std::size_t>(t)].target_ps = targets[t] * 1000.0;
  }

  // Slabs live per worker thread and are recycled across designs and
  // CPA architectures — zero steady-state heap traffic, the same
  // frame discipline the tensor kernels use.
  thread_local nt::ScratchArena arena;

  std::vector<int> active;        // lane -> target index
  std::vector<GateId> path;
  for (std::size_t ci = 0; ci < prep.menu_size(); ++ci) {
    active.clear();
    for (int t = 0; t < T; ++t) {
      if (lanes_state[static_cast<std::size_t>(t)].active) active.push_back(t);
    }
    if (active.empty()) break;
    const int A = static_cast<int>(active.size());
    const Netlist& nl = prep.netlist_at(ci);
    const auto& gates = nl.gates();
    const int G = nl.num_gates();
    const int N = nl.num_nets();

    auto& counters = util::perf_counters();
    counters.netlists_reused.fetch_add(static_cast<std::uint64_t>(A),
                                       std::memory_order_relaxed);
    counters.synth_calls.fetch_add(static_cast<std::uint64_t>(A),
                                   std::memory_order_relaxed);

    arena.reset();
    sta::BatchTimer timer(nl, lib, prep.graph_at(ci), A, arena);

    // -- greedy critical-path upsizing (size_with_timer, per lane) ----
    std::vector<std::vector<GateId>> changed(static_cast<std::size_t>(A));
    std::vector<char> done(static_cast<std::size_t>(A), 0);
    for (int pass = 0; pass < sopts.max_upsize_passes; ++pass) {
      bool any = false;
      for (int l = 0; l < A; ++l) {
        auto& ch = changed[static_cast<std::size_t>(l)];
        ch.clear();
        if (done[static_cast<std::size_t>(l)] != 0) continue;
        const double target_ps =
            lanes_state[static_cast<std::size_t>(active[static_cast<
                std::size_t>(l)])].target_ps;
        if (timer.critical_ps(l) <= target_ps) {
          done[static_cast<std::size_t>(l)] = 1;
          continue;
        }
        timer.critical_path(l, path);
        for (GateId g : path) {
          const int v = timer.variant(l, g);
          if (v + 1 < timer.num_variants(g)) {
            timer.set_variant(l, g, v + 1);
            ch.push_back(g);
          }
        }
        if (ch.empty()) {
          done[static_cast<std::size_t>(l)] = 1;  // critical gates maxed out
        } else {
          any = true;
        }
      }
      if (!any) break;
      timer.update(changed);
    }

    // -- slack-driven area recovery (same pass, all lanes) ------------
    if (sopts.area_recovery) {
      std::vector<double> budget(static_cast<std::size_t>(A), 0.0);
      std::vector<std::vector<GateId>> downsized(static_cast<std::size_t>(A));
      for (int l = 0; l < A; ++l) {
        const std::size_t ls = static_cast<std::size_t>(l);
        const double target_ps =
            lanes_state[static_cast<std::size_t>(active[ls])].target_ps;
        budget[ls] = std::max(target_ps, timer.critical_ps(l));
      }
      // One strided backward pass refreshes every lane's slacks
      // (bit-identical to a pass per lane).
      timer.refresh_slacks(budget.data());
      for (int l = 0; l < A; ++l) {
        const std::size_t ls = static_cast<std::size_t>(l);
        for (GateId gi = 0; gi < G; ++gi) {
          const Gate& g = gates[static_cast<std::size_t>(gi)];
          const int v = timer.variant(l, gi);
          if (v == 0 || g.outputs.empty()) continue;
          const NetId out = g.outputs[0];
          const double penalty =
              (timer.drive_res(gi, v - 1) - timer.drive_res(gi, v)) *
              timer.load_ff(l, out);
          double out_slack = timer.slack(l, out);
          for (std::size_t o = 1; o < g.outputs.size(); ++o) {
            out_slack = std::min(out_slack, timer.slack(l, g.outputs[o]));
          }
          if (out_slack > 2.0 * penalty + 5.0) {
            timer.set_variant(l, gi, v - 1);
            downsized[ls].push_back(gi);
          }
        }
      }
      if (any_nonempty(downsized)) {
        timer.update(downsized);
        std::vector<std::vector<GateId>> revert(static_cast<std::size_t>(A));
        for (int l = 0; l < A; ++l) {
          const std::size_t ls = static_cast<std::size_t>(l);
          if (downsized[ls].empty()) continue;
          if (timer.critical_ps(l) > budget[ls] + 0.5) {
            for (GateId g : downsized[ls]) {
              timer.set_variant(l, g, timer.variant(l, g) + 1);
            }
            revert[ls] = downsized[ls];
          }
        }
        if (any_nonempty(revert)) timer.update(revert);
      }
    }

    // -- per-lane reporting + CPA selection (PreparedDesign rule) -----
    const int L = timer.lanes();
    const double* loads = timer.load_slab();
    for (int l = 0; l < A; ++l) {
      const int t = active[static_cast<std::size_t>(l)];
      LaneState& ls = lanes_state[static_cast<std::size_t>(t)];
      SynthesisResult res;
      double area = 0.0;  // netlist_area mirror: lib area in gate order
      for (GateId gi = 0; gi < G; ++gi) {
        area += timer.area(l, gi);
      }
      res.area_um2 = area;
      res.delay_ns = timer.critical_ps(l) / 1000.0;
      res.met_target = res.delay_ns <= targets[t] + 1e-9;
      res.num_gates = G;
      res.cpa = prep.cpa_at(ci);
      const bool better =
          !ls.have ||
          (res.met_target && !ls.best.met_target) ||
          (res.met_target == ls.best.met_target &&
           (res.met_target ? res.area_um2 < ls.best.area_um2
                           : res.delay_ns < ls.best.delay_ns));
      if (better) {
        ls.best = res;
        ls.have = true;
        ls.best_cpa = ci;
        ls.best_variants.resize(static_cast<std::size_t>(G));
        for (int g = 0; g < G; ++g) {
          ls.best_variants[static_cast<std::size_t>(g)] = timer.variant(l, g);
        }
        ls.best_loads.resize(static_cast<std::size_t>(N));
        for (int n = 0; n < N; ++n) {
          ls.best_loads[static_cast<std::size_t>(n)] =
              loads[static_cast<std::size_t>(n) * L + l];
        }
      }
      if (res.met_target) ls.active = false;
    }
  }

  // -- power for each winner only, from its snapshot ------------------
  std::array<std::vector<double>, PreparedDesign::num_cpa()> probs;
  std::vector<SynthesisResult> results(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    LaneState& ls = lanes_state[static_cast<std::size_t>(t)];
    const Netlist& nl = prep.netlist_at(ls.best_cpa);
    auto& p = probs[ls.best_cpa];
    if (p.empty()) {
      p = signal_probabilities(nl, prep.graph_at(ls.best_cpa).topo);
    }
    const double clock_ns = std::max(targets[t], ls.best.delay_ns);
    ls.best.power_mw = power_from_snapshot(nl, lib, p, ls.best_loads,
                                           ls.best_variants, clock_ns);
    results[static_cast<std::size_t>(t)] = ls.best;
  }
  return results;
}

}  // namespace

void verify_equivalence(const Netlist& nl, const ppg::MultiplierSpec& spec,
                        const std::string& key, std::uint64_t vectors) {
  util::Rng rng(0x5EC5EC ^ std::hash<std::string>{}(key));
  const auto rep = sim::check_equivalence(nl, spec, rng, 1 << 16, vectors);
  if (!rep.equivalent) {
    std::ostringstream msg;
    msg << "DesignEvaluator: functional mismatch (a=" << rep.a
        << ", b=" << rep.b << ", acc=" << rep.acc << ", got=" << rep.got
        << ", expect=" << rep.expect << ")";
    throw std::runtime_error(msg.str());
  }
}

BatchEvaluator::BatchEvaluator(ppg::MultiplierSpec spec,
                               std::vector<double> targets,
                               const BatchOptions& opts)
    : spec_(spec), targets_(std::move(targets)), opts_(opts) {}

BatchResult BatchEvaluator::evaluate_one(const ct::CompressorTree& tree,
                                         const std::string& key) const {
  BatchResult out;
  try {
    out.per_target = synthesize_all_targets(spec_, tree, key, targets_, opts_);
  } catch (...) {
    out.error = std::current_exception();
  }
  return out;
}

std::vector<BatchResult> BatchEvaluator::evaluate(
    const std::vector<ct::CompressorTree>& trees,
    const std::vector<std::string>& keys, util::ThreadPool& pool) const {
  std::vector<BatchResult> out(trees.size());
  if (trees.empty()) return out;
  if (trees.size() == 1 || pool.size() <= 1) {
    // Inline on the caller: a single-worker pool would only add
    // future round-trips to a serial execution.
    for (std::size_t i = 0; i < trees.size(); ++i) {
      out[i] = evaluate_one(trees[i], keys[i]);
    }
    return out;
  }
  std::vector<std::future<BatchResult>> futs;
  futs.reserve(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    futs.push_back(pool.submit(
        [this, &trees, &keys, i] { return evaluate_one(trees[i], keys[i]); }));
  }
  for (auto& f : futs) f.wait();
  for (std::size_t i = 0; i < trees.size(); ++i) out[i] = futs[i].get();
  return out;
}

}  // namespace rlmul::synth
