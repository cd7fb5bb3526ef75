// Content-addressed snapshots of the pipeline's inputs: per-design-rule
// projection hashes over the post-load ANM, per-device neighborhood
// signatures over the designed ANM, and per-template-base version
// hashes — all FNV-1a 64 (core/hash.hpp), like the checkpoint manifests
// and the analysis FibCache keys. Two snapshots diff into a minimal
// recompute plan (see plan.hpp): a design rule whose projection hash is
// unchanged re-reads nothing it has not already read, so its baseline
// overlay can be copied; a device whose signature is unchanged compiles
// and renders to the same bytes, so its baseline records can be reused.
//
// Every projection is a conservative over-approximation of the rule's or
// compiler's true read set: a hash match guarantees identical output, a
// mismatch merely forces recomputation. The equivalence suite
// (tests/incremental_test.cpp) holds the byte-identity contract.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "anm/anm.hpp"
#include "design/bgp.hpp"
#include "design/igp.hpp"
#include "design/ip_allocation.hpp"
#include "render/renderer.hpp"

namespace autonet::incremental {

/// What the design phase is about to run, as snapshot input. Mirrors the
/// design-relevant subset of core::WorkflowOptions without depending on
/// core (which links this library).
struct DesignSpec {
  std::string ibgp = "mesh";  // "mesh", "rr", or "rr-auto"
  bool enable_isis = false;
  bool enable_dns = false;
  bool enable_rpki = false;
  design::OspfOptions ospf;
  design::IpOptions ip;
  design::RrSelectOptions rr_select;

  /// Rule names in pipeline execution order for this spec.
  [[nodiscard]] std::vector<std::string> rule_order() const;
};

/// Per-device signatures plus the whole-network digest they are only
/// valid under: any global change (overlay data() such as allocated IP
/// blocks, the dns/rpki service overlays, the target platform) dirties
/// every device, because the platform compiler's network-wide sections
/// (links table, cross-connects, service pointers) read all of it.
struct DeviceSignatures {
  std::map<std::string, std::uint64_t> sigs;
  std::uint64_t global_digest = 0;
};

/// One pipeline snapshot, persisted as snapshot.json next to the phase
/// checkpoints it describes.
struct Snapshot {
  std::string lint_sig;          // lint-option slice of the options signature
  std::uint64_t data_hash = 0;   // NIDB data() section
  std::uint64_t global_digest = 0;
  std::map<std::string, std::uint64_t> rule_hashes;
  std::map<std::string, std::uint64_t> device_sigs;
  std::map<std::string, std::uint64_t> template_hashes;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<Snapshot> from_json(const std::string& text);
};

/// Per-design-rule projection hashes over the post-load ANM ('input' +
/// 'phy' only; must run before any design rule mutates phy).
[[nodiscard]] std::map<std::string, std::uint64_t> rule_projections(
    const anm::AbstractNetworkModel& anm, const DesignSpec& spec);

/// Per-device neighborhood signatures over the fully designed ANM: the
/// device's node attributes and incident edges in every overlay, its
/// neighbors' overlay attributes, two hops through collision domains in
/// the ip overlay (subnets and every member's interface address), and
/// BGP peers' loopbacks.
[[nodiscard]] DeviceSignatures device_signatures(
    const anm::AbstractNetworkModel& anm, const std::string& platform);

/// Version hash per template base (entry paths, kind, and static
/// content). Builtin templates carry no retained source, so a compiled
/// template hashes by identity of its entry path — a version marker
/// that distinguishes template-set shape changes, not edits to an
/// individual builtin (those ship in a new binary; see
/// docs/incremental.md, "Limits").
[[nodiscard]] std::map<std::string, std::uint64_t> template_base_hashes(
    const render::TemplateStore& store);

}  // namespace autonet::incremental
