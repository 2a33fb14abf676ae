#include <algorithm>
#include <utility>

#include "synth/synth.hpp"
#include "util/perf_counters.hpp"

namespace rlmul::synth {

using netlist::CellLibrary;
using netlist::CpaKind;
using netlist::Netlist;

PreparedDesign::PreparedDesign(const ppg::MultiplierSpec& spec,
                               const ct::CompressorTree& tree)
    : spec_(spec), prefix_(ppg::build_multiplier_prefix(spec, tree)) {
  util::perf_counters().netlists_built.fetch_add(1, std::memory_order_relaxed);
}

PreparedDesign::PreparedDesign(const ppg::MultiplierSpec& spec,
                               const ct::CompressorTree& tree,
                               prefix::PrefixGraph cpa)
    : spec_(spec),
      prefix_(ppg::build_multiplier_prefix(spec, tree)),
      pinned_(true),
      pinned_graph_(std::move(cpa)),
      pinned_label_(netlist::cpa_kind_of_graph(pinned_graph_)) {
  util::perf_counters().netlists_built.fetch_add(1, std::memory_order_relaxed);
}

const PreparedDesign::CpaEntry& PreparedDesign::entry(std::size_t idx) const {
  CpaEntry& e = entries_[idx];
  std::call_once(e.once, [&] {
    if (delta_) {
      build_entry_delta(idx, e);
    } else {
      e.netlist = pinned_
                      ? ppg::attach_cpa(prefix_, spec_, pinned_graph_)
                      : ppg::attach_cpa(prefix_, spec_,
                                        netlist::kAllCpaKinds[idx]);
      e.graph = sta::TimingGraph::build(e.netlist, CellLibrary::nangate45());
    }
    util::perf_counters().cpa_variants_built.fetch_add(
        1, std::memory_order_relaxed);
  });
  return e;
}

CpaKind PreparedDesign::cpa_at(std::size_t idx) const {
  return pinned_ ? pinned_label_ : netlist::kAllCpaKinds[idx];
}

const Netlist& PreparedDesign::netlist_at(std::size_t idx) const {
  return entry(idx).netlist;
}

const sta::TimingGraph& PreparedDesign::graph_at(std::size_t idx) const {
  return *entry(idx).graph;
}

SynthesisResult PreparedDesign::synthesize(double target_delay_ns) const {
  if (delta_) return synthesize_delta(target_delay_ns);
  const CellLibrary& lib = CellLibrary::nangate45();
  SynthesisOptions opts;
  opts.target_delay_ns = target_delay_ns;

  // Same selection rule as the legacy per-CPA loop: kAllCpaKinds is
  // ordered by area, so stop at the first architecture that meets the
  // target; otherwise keep the fastest. Power is deferred to the one
  // CPA that wins (it never enters the selection), which skips three
  // estimates per call on the common early-exit path.
  SynthesisResult best;
  Netlist best_nl;
  bool have = false;
  for (std::size_t i = 0; i < menu_size(); ++i) {
    const CpaEntry& e = entry(i);
    Netlist nl = e.netlist;  // variants all 0; timing graph still valid
    util::perf_counters().netlists_reused.fetch_add(1,
                                                    std::memory_order_relaxed);
    sta::IncrementalTimer timer(nl, lib, e.graph);
    SynthesisResult res =
        synthesize_with_timer(nl, lib, opts, timer, /*compute_power=*/false);
    res.cpa = cpa_at(i);
    const bool better =
        !have ||
        (res.met_target && !best.met_target) ||
        (res.met_target == best.met_target &&
         (res.met_target ? res.area_um2 < best.area_um2
                         : res.delay_ns < best.delay_ns));
    if (better) {
      best = res;
      best_nl = std::move(nl);
      have = true;
    }
    if (res.met_target) break;
  }
  const double clock_ns = std::max(target_delay_ns, best.delay_ns);
  best.power_mw = estimate_power(best_nl, lib, clock_ns).total_mw();
  return best;
}

}  // namespace rlmul::synth
