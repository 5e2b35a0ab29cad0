// SystemComposer: turn manifests into a running assembly (paper §III-A/B).
//
// The composer is where "separation is built right into the development
// workflow": it places every component on its requested substrate (after a
// PolicyChecker pass), creates domains, and wires exactly the channels the
// manifests declare — nothing else. At runtime, Assembly::invoke() refuses
// undeclared communication before it even reaches a substrate, and the
// substrate would refuse it too (defence in depth; the fig6 ablation
// disables the manifest check to show the substrate still holds).
//
// The assembly API is handle-based: resolve a component name once with
// ref(), then drive the hot paths (invoke/send/receive) with the returned
// ComponentRef — an interned index, so per-invocation cost is a vector
// index plus a short adjacency scan instead of two map lookups over
// strings. The string overloads remain as thin wrappers for setup code and
// tests. Endpoints handed out to runtime adapters carry the channel epoch
// (core::Endpoint), so holders from before a supervised restart fail fast
// with Errc::stale_epoch instead of driving the reincarnated channel.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "core/manifest.h"
#include "core/trust_graph.h"
#include "substrate/registry.h"
#include "substrate/substrate.h"

namespace lateral::trace {
class Tracer;
}  // namespace lateral::trace
namespace lateral::runtime {
class MetricsHub;
}  // namespace lateral::runtime
namespace lateral::health {
class AuditLog;
}  // namespace lateral::health

namespace lateral::core {

/// Interned handle to a component of one Assembly. Cheap to copy and
/// compare; only meaningful to the Assembly that minted it. Refs stay valid
/// across supervised restarts of the component — the name keeps denoting
/// the (possibly reincarnated) component, not one domain instance.
class ComponentRef {
 public:
  constexpr ComponentRef() = default;
  constexpr bool valid() const { return index_ != kInvalid; }
  friend constexpr bool operator==(ComponentRef, ComponentRef) = default;

 private:
  friend class Assembly;
  friend class SystemComposer;
  static constexpr std::uint32_t kInvalid = 0xffff'ffff;
  constexpr explicit ComponentRef(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = kInvalid;
};

/// A composed, running system of components.
class Assembly {
 public:
  struct Component {
    Manifest manifest;
    substrate::IsolationSubstrate* substrate = nullptr;
    substrate::DomainId domain = substrate::kInvalidDomain;
    /// Times this component has been relaunched after a crash.
    std::uint32_t incarnation = 0;
    /// When non-empty, restart_component launches this image instead of the
    /// deterministic manifest-derived one — the OTA swap mechanism: the
    /// update orchestrator installs the staged slot's bytes here, restarts,
    /// and the component re-measures to the *new* image. Reverting restores
    /// the previous slot's bytes the same way.
    Bytes image_override;
  };

  /// Intern a component name. Errc::no_such_domain when unknown.
  Result<ComponentRef> ref(const std::string& name) const;
  /// Name behind a handle (empty for an invalid/foreign ref).
  std::string_view name_of(ComponentRef ref) const;

  /// Look up a component. Errc::no_such_domain when unknown.
  Result<const Component*> component(ComponentRef ref) const;
  Result<const Component*> component(const std::string& name) const;

  /// Install the behaviour (handler) of a component. The assembly records
  /// the handler so a supervised restart can reinstall it into the
  /// relaunched domain.
  Status set_behavior(ComponentRef ref,
                      substrate::IsolationSubstrate::Handler handler);
  Status set_behavior(const std::string& name,
                      substrate::IsolationSubstrate::Handler handler);

  /// Invoke `to` from `from` over their declared channel. Fails with
  /// policy_violation when the manifests declared no such channel, and
  /// with domain_dead when either side has crashed and not been restarted.
  Result<Bytes> invoke(ComponentRef from, ComponentRef to, BytesView data);
  Result<Bytes> invoke(const std::string& from, const std::string& to,
                       BytesView data);

  /// Async variants.
  Status send(ComponentRef from, ComponentRef to, BytesView data);
  Status send(const std::string& from, const std::string& to, BytesView data);
  Result<substrate::Message> receive(ComponentRef at, ComponentRef from);
  Result<substrate::Message> receive(const std::string& at,
                                     const std::string& from);

  /// The epoch-stamped endpoint of `from`'s side of its declared channel to
  /// `to` — what lateral::runtime's CompletionQueue drives.
  /// The manifest check happens here, once, when the endpoint is handed
  /// out; the substrate's reference monitor still checks every use, and the
  /// endpoint itself goes stale (Errc::stale_epoch) when a supervised
  /// restart re-epochs the channel — holders re-mint through this method.
  /// Errc::policy_violation when the manifests declared no such channel.
  Result<Endpoint> endpoint(ComponentRef from, ComponentRef to) const;
  Result<Endpoint> endpoint(const std::string& from,
                            const std::string& to) const;

  /// Badge identifying `from` on the channel between from and to (what the
  /// receiver will see in Invocation::badge). Badges are reminted when a
  /// restart rebinds the channel, so resolve them per incarnation.
  Result<std::uint64_t> badge_of(const std::string& from,
                                 const std::string& to) const;

  /// The shared grant region the manifests declared between two components
  /// (either direction). Both endpoints were mapped at compose time, so the
  /// caller can go straight to region_write / make_descriptor / call_sg.
  /// Errc::policy_violation when no region was declared;
  /// Errc::no_region_support when it was declared but the substrate cannot
  /// realize it (TPM/fTPM) — the caller's cue to use the copy path.
  Result<substrate::RegionId> region_between(ComponentRef x,
                                             ComponentRef y) const;
  Result<substrate::RegionId> region_between(const std::string& x,
                                             const std::string& y) const;

  /// Crash a component abruptly (fault injection / containment drills):
  /// kill_domain at the substrate, leaving a corpse every peer observes as
  /// Errc::domain_dead until restart_component() relaunches it.
  Status kill_component(ComponentRef ref);
  Status kill_component(const std::string& name);

  /// Relaunch a component through the composer path: a fresh domain from
  /// the same manifest (same deterministic image, so re-measurement yields
  /// the expected value), every assembly channel rebound to the new domain
  /// under a bumped epoch and fresh badges, the corpse reaped, and the
  /// recorded behaviour reinstalled. A still-live component is killed
  /// first (forced restart). Errc::no_such_domain for unknown components.
  /// On success the component's ref and channels remain valid; outstanding
  /// Endpoint objects go stale by design.
  Status restart_component(ComponentRef ref);
  Status restart_component(const std::string& name);

  /// Install the image the *next* restart_component will launch (empty =
  /// back to the deterministic manifest-derived image). This only stages
  /// intent: the running domain is untouched until restart_component swaps
  /// it. The update orchestrator is the intended caller; it verifies the
  /// bytes against a signed manifest before installing them here.
  Status set_component_image(ComponentRef ref, Bytes code);
  Status set_component_image(const std::string& name, Bytes code);
  /// The image bytes a restart of this component would launch right now
  /// (the override when set, else the manifest-derived default).
  Result<Bytes> component_image(ComponentRef ref) const;

  /// Number of domains behind a component name: N for a component declared
  /// `shard N` (expanded into name#0..name#N-1), 1 for an ordinary
  /// component, 0 for an unknown name.
  std::size_t shard_count(const std::string& name) const;
  /// Resolve a (possibly sharded) component plus a routing key to the
  /// concrete shard: shard_ref("imap", k) interns "imap#(k mod N)" when imap
  /// was declared `shard N`, and falls back to ref(name) for unsharded
  /// components — callers route by key (e.g. mailbox id, client id) without
  /// knowing whether the target is sharded. Errc::no_such_domain when
  /// unknown.
  Result<ComponentRef> shard_ref(const std::string& name,
                                 std::uint64_t key) const;

  /// Mark a component compromised (containment experiments).
  Status compromise(const std::string& name);

  /// Propagation graph of this assembly (from the manifests).
  TrustGraph trust_graph() const;

  std::vector<std::string> component_names() const;

  /// The manifests this assembly was composed from (redaction policy for
  /// trace exports is decided against these).
  const std::vector<Manifest>& manifests() const { return manifests_; }

  /// When false, invoke()/send() skip the manifest-level channel check and
  /// rely on the substrate alone (ablation hook; default true).
  void set_manifest_enforcement(bool on) { enforce_manifest_ = on; }

  /// Audit sink: a manifest-level POLA refusal (invoke/send/endpoint over a
  /// channel the manifests never declared) is a security-relevant event and
  /// lands in the log as evidence, not just a returned Errc.
  void set_audit(health::AuditLog* audit) { audit_ = audit; }

  /// Plain-text observability snapshot of this assembly: per-component
  /// flight-recorder contents from `tracer` plus per-label counters from
  /// `hub` (either may be null). Defined in trace/exporter.cpp — the
  /// observability layer sits above core, so the definition lives there.
  std::string dump_observability(const trace::Tracer* tracer,
                                 const runtime::MetricsHub* hub) const;

 private:
  friend class SystemComposer;

  /// One declared channel between two components (undirected).
  struct ChannelRec {
    substrate::IsolationSubstrate* substrate = nullptr;
    substrate::ChannelId id = 0;
    std::uint32_t a = 0;  // node index, a < b not required (insertion order)
    std::uint32_t b = 0;
    std::uint64_t badge_a = 0;
    std::uint64_t badge_b = 0;
  };

  /// One declared grant region between two components. `supported` is false
  /// when the substrate refused with no_region_support (TPM/fTPM): the
  /// declaration stays recorded so region_between can report the precise
  /// reason, and callers fall back to the copy path.
  struct RegionRec {
    substrate::IsolationSubstrate* substrate = nullptr;
    substrate::RegionId id = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    bool supported = false;
  };

  struct Node {
    Component component;
    substrate::IsolationSubstrate::Handler behavior;  // recorded for restart
    /// Adjacency: peer node index -> index into channels_. Kept as a flat
    /// vector (manifests declare a handful of channels per component), so
    /// the invoke hot path is index + linear scan, no string compares.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    /// Adjacency for grant regions: peer node index -> index into regions_.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> region_edges;
  };

  const Node* node_of(ComponentRef ref) const;
  Node* node_of(ComponentRef ref);
  /// Channel between two interned components; no_such_channel when the
  /// manifests declared none.
  Result<const ChannelRec*> channel_between(ComponentRef x,
                                            ComponentRef y) const;

  std::vector<Node> nodes_;
  std::vector<ChannelRec> channels_;
  std::vector<RegionRec> regions_;
  std::map<std::string, std::uint32_t, std::less<>> index_;  // name -> node
  std::vector<Manifest> manifests_;
  /// Declared shard counts by *base* name (only names declared `shard N`,
  /// N > 1); shard_ref routes through this before falling back to ref().
  std::map<std::string, std::uint32_t, std::less<>> shard_counts_;
  bool enforce_manifest_ = true;
  health::AuditLog* audit_ = nullptr;
};

/// Expand `shard N` declarations: each sharded manifest becomes N copies
/// ("name#0" .. "name#N-1", each with shards reset to 1), and every
/// channel / region / trust / trace-observer reference to a sharded name —
/// in sharded and unsharded manifests alike — fans out to all N shard
/// names. Manifests without shard declarations pass through unchanged.
/// compose() applies this after validation (so diagnostics name what the
/// developer wrote) and composes the expanded set; exposed for tests and
/// for tooling that wants to inspect the post-expansion system.
std::vector<Manifest> expand_shards(const std::vector<Manifest>& manifests);

class SystemComposer {
 public:
  /// `substrates` maps substrate names to live instances (possibly on
  /// different machines).
  explicit SystemComposer(
      std::map<std::string, substrate::IsolationSubstrate*> substrates);

  /// Compose an assembly. Fails with policy_violation when validation or
  /// the policy check fails; the diagnostics() of the last compose attempt
  /// explain why.
  Result<std::unique_ptr<Assembly>> compose(
      const std::vector<Manifest>& manifests);

  const std::vector<std::string>& diagnostics() const { return diagnostics_; }

 private:
  std::map<std::string, substrate::IsolationSubstrate*> substrates_;
  std::vector<std::string> diagnostics_;
};

}  // namespace lateral::core
