#pragma once
// Synthesis flow: the OpenROAD/NanGate stand-in that turns a design
// point (PPG kind + compressor tree + CPA) into PPA numbers under a
// target delay constraint. Mirrors what the paper's reward loop asks of
// the EDA tools:
//
//   1. map the design onto library cells (netlist builder),
//   2. size gates against the target delay (greedy critical-path
//      upsizing + slack-driven area recovery),
//   3. pick the cheaper CPA architecture that still meets timing,
//   4. report area / achieved delay / power.
//
// Tight constraints therefore cost area (bigger drives, prefix adder)
// and loose constraints recover it, which produces the area-delay
// trade-off curves of Figs 9-11.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ct/compressor_tree.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "ppg/ppg.hpp"
#include "sta/sta.hpp"

namespace rlmul::synth {

struct PowerReport {
  double dynamic_mw = 0.0;
  double leakage_mw = 0.0;
  double total_mw() const { return dynamic_mw + leakage_mw; }
};

/// Supply voltage of the power model, shared by every estimator
/// (including the batched evaluator's strided mirror of
/// estimate_power, which must use the very same constant to stay
/// bit-identical).
inline constexpr double kVddVolts = 1.1;

/// Signal probability (P[net == 1]) propagation under an independence
/// assumption — the activity model behind estimate_power. Depends only
/// on connectivity (never on gate variants), so one result serves
/// every sizing of the same netlist.
std::vector<double> signal_probabilities(const netlist::Netlist& nl);

/// Same propagation over a caller-provided topological order (e.g. a
/// cached sta::TimingGraph::topo), skipping the re-sort the plain
/// overload pays. `topo` must equal nl.topo_order().
std::vector<double> signal_probabilities(
    const netlist::Netlist& nl, const std::vector<netlist::GateId>& topo);

/// Probabilistic power estimate: signal probabilities are propagated
/// under an independence assumption, per-net toggle activity is
/// 2*p*(1-p) per cycle, and switching + internal energies are summed at
/// the given clock period.
PowerReport estimate_power(const netlist::Netlist& nl,
                           const netlist::CellLibrary& lib,
                           double clock_ns);

/// estimate_power with the probabilities and per-net loads already in
/// hand: `p` from signal_probabilities (connectivity-only, cacheable
/// across sizings) and `load` equal to compute_loads of the netlist as
/// sized (the delta path passes the winning timer's converged loads,
/// which the incremental-STA contract keeps identical to a fresh
/// compute_loads). Summation order matches estimate_power exactly, so
/// the result is bit-identical.
PowerReport estimate_power_given(const netlist::Netlist& nl,
                                 const netlist::CellLibrary& lib,
                                 double clock_ns,
                                 const std::vector<double>& p,
                                 const std::vector<double>& load);

/// Monte-Carlo power estimate: simulates random input vectors and
/// counts the actual per-net toggles (zero-delay model). Slower but
/// free of the independence assumption; the tests cross-validate the
/// two estimators against each other.
PowerReport simulate_power(const netlist::Netlist& nl,
                           const netlist::CellLibrary& lib, double clock_ns,
                           int num_vectors, std::uint64_t seed = 1);

struct SynthesisOptions {
  double target_delay_ns = 1.0;
  int max_upsize_passes = 24;
  bool area_recovery = true;
  /// Worklist-based incremental STA during sizing: each pass
  /// re-propagates arrival times only downstream of the gates whose
  /// drive changed. Off = one full sta::analyze per pass (the
  /// verification reference; results are identical either way).
  bool incremental_sta = true;
};

struct SynthesisResult {
  double area_um2 = 0.0;
  double delay_ns = 0.0;  ///< achieved critical delay after sizing
  double power_mw = 0.0;
  bool met_target = false;
  netlist::CpaKind cpa = netlist::CpaKind::kRippleCarry;
  int num_gates = 0;
};

/// Sizes the netlist in place against the option's target delay.
void size_for_target(netlist::Netlist& nl, const netlist::CellLibrary& lib,
                     const SynthesisOptions& opts);

/// Runs sizing + reporting on an already-built netlist.
SynthesisResult synthesize_netlist(netlist::Netlist& nl,
                                   const netlist::CellLibrary& lib,
                                   const SynthesisOptions& opts);

/// Sizing + reporting against an existing incremental timer. The timer
/// must have been constructed over `nl` and be in sync with it (all
/// variants at 0 for a freshly prepared netlist). Power estimation is
/// skipped when `compute_power` is false — the fast path defers it to
/// the one CPA architecture that wins.
SynthesisResult synthesize_with_timer(netlist::Netlist& nl,
                                      const netlist::CellLibrary& lib,
                                      const SynthesisOptions& opts,
                                      sta::IncrementalTimer& timer,
                                      bool compute_power = true);

/// Full design-point synthesis: builds one netlist per CPA
/// architecture, sizes each, returns the best (met-timing designs by
/// area, otherwise fastest). Routed through a PreparedDesign, so the
/// PPG + compressor-tree prefix is built once and shared by every CPA
/// variant tried.
SynthesisResult synthesize_design(const ppg::MultiplierSpec& spec,
                                  const ct::CompressorTree& tree,
                                  double target_delay_ns);

/// Full design-point synthesis for a DesignPoint: menu points sweep the
/// named CPA architectures exactly like the tree overload; pinned
/// points synthesize their one prefix graph. The spec is the *base*
/// spec — the point's PPG family overrides it, and `point.tree` must
/// have been built against the resolved spec's pp heights.
SynthesisResult synthesize_design(const ppg::MultiplierSpec& spec,
                                  const ppg::DesignPoint& point,
                                  double target_delay_ns);

/// Reference implementation of synthesize_design: rebuilds the full
/// netlist per CPA and runs one full sta::analyze per sizing pass.
/// Kept as the slow oracle the evaluator's tests and the end-to-end
/// benchmark's per-double check compare against.
SynthesisResult synthesize_design_legacy(const ppg::MultiplierSpec& spec,
                                         const ct::CompressorTree& tree,
                                         double target_delay_ns);

/// A design point prepared for repeated synthesis: the PPG +
/// compressor-tree prefix is built once, each CPA variant is appended
/// onto a copy on first use (concurrently safe), and the per-CPA
/// timing structure (topo order, fanout, static loads) is shared by
/// every target synthesized through it. `synthesize` is `const` and
/// thread-safe: concurrent targets size private copies of the prepared
/// netlists, so the multi-constraint evaluation can fan out.
class PreparedDesign {
 public:
  PreparedDesign(const ppg::MultiplierSpec& spec,
                 const ct::CompressorTree& tree);

  /// Pinned-CPA variant: the menu collapses to the one given prefix
  /// graph (menu_size() == 1), labeled by cpa_kind_of_graph. Everything
  /// else — sizing, selection (trivial), deferred power — matches the
  /// menu path, so a point pinned to a named graph synthesizes to the
  /// same numbers that architecture gets in a sweep.
  PreparedDesign(const ppg::MultiplierSpec& spec,
                 const ct::CompressorTree& tree, prefix::PrefixGraph cpa);

  /// Tag selecting the delta-evaluation constructors.
  struct DeltaMode {};

  /// Delta mode: records a build trace so this design can later serve
  /// as a parent, and — when `parent` is a compatible sealed delta
  /// design of the same spec — clones the parent's netlist and rebuilds
  /// only the fan-out cone of the changed compressor cells, then
  /// warm-starts each CPA entry's baseline timing state from the
  /// parent's converged state. Synthesis results are bit-identical to
  /// the plain constructors (property-tested contract).
  PreparedDesign(DeltaMode, const ppg::MultiplierSpec& spec,
                 const ct::CompressorTree& tree,
                 std::shared_ptr<const PreparedDesign> parent);
  PreparedDesign(DeltaMode, const ppg::MultiplierSpec& spec,
                 const ct::CompressorTree& tree, prefix::PrefixGraph cpa,
                 std::shared_ptr<const PreparedDesign> parent);

  bool delta_mode() const { return delta_; }
  /// Whether construction actually patched against a parent (false when
  /// no parent was given or it was incompatible — counted as a
  /// fallback by the evaluator).
  bool used_parent() const { return parent_ != nullptr; }

  /// Finalizes a delta design for retention as a future parent: forces
  /// every menu entry (netlist, timing graph, baseline state) and drops
  /// the parent reference plus build-time maps, so retained states
  /// never chain and later readers only touch immutable data. No-op for
  /// non-delta designs.
  void seal_for_retention() const;

  PreparedDesign(const PreparedDesign&) = delete;
  PreparedDesign& operator=(const PreparedDesign&) = delete;

  const ppg::MultiplierSpec& spec() const { return spec_; }

  /// Same contract (and bit-identical result) as synthesize_design.
  SynthesisResult synthesize(double target_delay_ns) const;

  /// Number of CPA architectures in the full menu (== kAllCpaKinds, in
  /// the same area order synthesize() walks them in) — the static upper
  /// bound menu_size() never exceeds.
  static constexpr std::size_t num_cpa() {
    return std::size(netlist::kAllCpaKinds);
  }
  /// Entries synthesize() actually walks: num_cpa() for menu designs,
  /// 1 for pinned designs.
  std::size_t menu_size() const { return pinned_ ? 1 : kNumCpa; }
  /// The reporting label of menu entry `idx` (kAllCpaKinds[idx] for
  /// menu designs, the pinned graph's label at index 0 otherwise).
  netlist::CpaKind cpa_at(std::size_t idx) const;
  /// Prepared netlist (variants at 0) / shared timing structure by menu
  /// index; built on first use. The batched evaluator walks the same
  /// menu in the same order, sizing all targets of one architecture per
  /// sweep, and the equivalence gate simulates entry 0.
  const netlist::Netlist& netlist_at(std::size_t idx) const;
  const sta::TimingGraph& graph_at(std::size_t idx) const;

 private:
  static constexpr std::size_t kNumCpa = std::size(netlist::kAllCpaKinds);
  struct CpaEntry {
    std::once_flag once;
    netlist::Netlist netlist;
    std::shared_ptr<const sta::TimingGraph> graph;
  };
  /// Delta-mode companions to CpaEntry, built inside the same
  /// call_once: the variants-at-0 timing fixpoint each per-target timer
  /// adopts instead of running a full update, plus lazily cached
  /// connectivity-only signal probabilities for the deferred power
  /// estimate.
  struct DeltaEntry {
    sta::TimingState baseline;
    std::once_flag probs_once;
    std::vector<double> probs;
  };
  const CpaEntry& entry(std::size_t idx) const;
  /// Delta-mode entry build: patches the CPA region from the parent
  /// when the final rows and adder match, and warm-starts the baseline.
  void build_entry_delta(std::size_t idx, CpaEntry& e) const;
  const std::vector<double>& entry_probs(std::size_t idx) const;
  SynthesisResult synthesize_delta(double target_delay_ns) const;
  /// Shared tail of the DeltaMode constructors: replays the compressor
  /// tree against the parent's trace when compatible (patch path) or
  /// from scratch while recording this design's own trace.
  void init_delta(std::shared_ptr<const PreparedDesign> parent);

  ppg::MultiplierSpec spec_;
  ppg::MultiplierPrefix prefix_;
  bool pinned_ = false;
  prefix::PrefixGraph pinned_graph_;
  netlist::CpaKind pinned_label_ = netlist::CpaKind::kCustom;
  mutable std::array<CpaEntry, kNumCpa> entries_;

  // Delta-evaluation state (empty in legacy mode).
  bool delta_ = false;
  ct::CompressorTree tree_;
  netlist::CtBuildTrace trace_;
  /// CT replay maps + twinned rows; consumed by entry builds, cleared
  /// by seal_for_retention.
  mutable netlist::CtReplayResult ct_;
  mutable std::shared_ptr<const PreparedDesign> parent_;
  mutable std::array<DeltaEntry, kNumCpa> delta_entries_;
};

/// Per-net slacks against a target (backward required-time pass);
/// used by sizing and exposed for tests.
std::vector<double> net_slacks(const netlist::Netlist& nl,
                               const netlist::CellLibrary& lib,
                               double target_ps);

/// Same backward pass over precomputed timing state (no internal
/// sta::analyze); `rep` must describe the current netlist.
std::vector<double> net_slacks(const netlist::Netlist& nl,
                               const netlist::CellLibrary& lib,
                               double target_ps,
                               const sta::TimingReport& rep);

}  // namespace rlmul::synth
