#pragma once
// Fingerprint keying for the design-space database. A stored record is
// identified by a triple:
//
//   (spec fingerprint, context fingerprint, canonical tree key)
//
// The spec fingerprint covers everything that changes the hardware a
// compressor tree compiles to (bit-width, PPG family, MAC mode) — the
// tree's own canonical key deliberately omits the pp heights, so two
// specs with identical compressor counts must never share records. The
// context fingerprint covers the evaluation contract: the exact IEEE
// bit patterns of the delay-target set plus the record format version.
// Evaluator options that cannot change the reported numbers (pool size,
// functional verification) are deliberately excluded, so runs that
// differ only in them share records; any future option that changes
// the reported numbers must be folded into context_fingerprint
// alongside a version bump.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ct/compressor_tree.hpp"
#include "ppg/ppg.hpp"
#include "synth/evaluator.hpp"

namespace rlmul::dsdb {

/// Bumped whenever the journal payload layout or the semantics of a
/// stored evaluation change; old records then simply never match.
/// (context_fingerprint hashes this constant, so a bump orphans every
/// existing record — which is why the pinned-CPA extension below got a
/// *separate* payload tag instead of a bump.)
constexpr std::uint32_t kRecordVersion = 1;

/// Payload tag for records that pin a CPA prefix graph: the v1 layout
/// followed by the serialized graph. Records without a pinned graph
/// keep writing version 1, byte-identical to pre-refactor journals,
/// and their fingerprints (which hash kRecordVersion, not the payload
/// tag) are unchanged — old records keep meaning.
constexpr std::uint32_t kRecordVersionPinned = 2;

/// FNV-1a over a byte range, chainable through `seed`.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

std::uint64_t spec_fingerprint(const ppg::MultiplierSpec& spec);

/// Hash of the delay-target bit patterns + kRecordVersion. The options
/// are accepted (and documented) as part of the contract even though no
/// current option perturbs the synthesized numbers — see file comment.
std::uint64_t context_fingerprint(const std::vector<double>& targets,
                                  const synth::EvaluatorOptions& opts = {});

struct Fingerprint {
  std::uint64_t spec_fp = 0;
  std::uint64_t ctx_fp = 0;
  std::string tree_key;  ///< ct::CompressorTree::key()

  /// Flat index key: "spec:ctx:tree", unique across specs and targets.
  std::string full_key() const;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint make_fingerprint(const ppg::MultiplierSpec& spec,
                             const std::vector<double>& targets,
                             const ct::CompressorTree& tree,
                             const synth::EvaluatorOptions& opts = {});

}  // namespace rlmul::dsdb
