// lateral::supervisor — crash detection and supervised restart.
//
// The paper's horizontal paradigm splits an app into components so a
// compromise is contained; this subsystem makes *crashes* equally
// containable. A Supervisor watches the components whose manifests carry a
// `restart { ... }` stanza and drives each through a small state machine:
//
//   running --dead probe--> suspect --confirmed--> restarting
//   restarting --relaunch ok--> running
//   restarting --budget exhausted--> degraded | halted   (per policy)
//
// Detection is non-intrusive: per supervised component the supervisor keeps
// a dedicated heartbeat channel from its own probe domain and polls it with
// receive(). A live, idle peer answers Errc::would_block; a crashed peer
// answers Errc::domain_dead the instant it dies (the substrate's corpse
// semantics — no timeout tuning, no handler involvement, no queue growth).
// Substrates too small to host a probe domain (SEP's fixed two-domain
// layout) fall back to management-plane probing: measurement() answers
// domain_dead on a corpse just as a heartbeat receive() would.
//
// Recovery goes through the composer path (Assembly::restart_component):
// fresh domain from the same manifest, assembly channels rebound under a
// bumped epoch (stale Endpoints fence off; see core/endpoint.h), corpse
// reaped, recorded behaviour reinstalled. The supervisor then re-measures
// the relaunched domain and — when configured with a verifier — runs the
// full challenge-response attestation before declaring it running again:
// a component that comes back *different* is a failed restart, not a
// recovered one. Restart hooks let higher layers re-establish state bound
// to the dead incarnation (net::SecureChannel sessions, CompletionQueue
// attachments).
//
// All policy (attempt budget, exponential backoff, escalation) comes from
// the manifest, so "what happens when this dies" ships with the component
// declaration, same as its channels and its attacker model.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/attestation.h"
#include "core/composer.h"
#include "health/audit.h"
#include "runtime/metrics.h"
#include "substrate/substrate.h"
#include "trace/trace.h"
#include "util/result.h"

namespace lateral::supervisor {

enum class Health : std::uint8_t {
  running,     // heartbeats healthy
  suspect,     // a probe reported death; confirmation pending
  restarting,  // death confirmed; relaunch scheduled (backoff) or in progress
  degraded,    // budget exhausted, policy says: leave it down, carry on
  halted,      // budget exhausted, policy says: the assembly lost a
               // mandatory component (Supervisor::halted() latches)
};

constexpr std::string_view health_name(Health h) {
  switch (h) {
    case Health::running: return "running";
    case Health::suspect: return "suspect";
    case Health::restarting: return "restarting";
    case Health::degraded: return "degraded";
    case Health::halted: return "halted";
  }
  return "unknown";
}

/// Post-mortem of one supervised crash incident. The flight-recorder
/// snapshot is the corpse's final span events — captured between the
/// supervisor confirming the death and scrubbing the ring — so an MTTR
/// number always comes with the timeline that led to it (what the domain
/// was doing when it died, the kill itself, and the detection).
struct RecoveryReport {
  std::string name;
  /// Incarnation that recovered the component; 0 while the incident is
  /// still open (or escalated without recovery).
  std::uint32_t incarnation = 0;
  Cycles detected_at = 0;
  Cycles recovered_at = 0;  // 0 until the relaunch is declared running
  std::vector<trace::SpanEvent> flight_recorder;
};

struct SupervisorConfig {
  /// Consecutive dead probes required before a suspect component is
  /// declared dead. The substrate's domain_dead answer is authoritative,
  /// so 1 is safe; raise it to model conservative detectors.
  std::uint32_t confirm_probes = 1;
  /// Optional shared metrics sink; falls back to supervisor-local stats.
  runtime::MetricsHub* hub = nullptr;
  std::string label = "supervisor";
  /// When set, every relaunch must pass challenge-response attestation
  /// against the relaunched domain's re-measured identity before the
  /// component is declared running (the verifier needs the substrate's
  /// endorsement root among its trusted roots).
  core::AttestationVerifier* verifier = nullptr;
  /// Optional tamper-evident audit sink: a relaunch that fails attestation
  /// and a budget-exhausted escalation are security-relevant events, and an
  /// operator reading the sealed log should see them even if the supervisor
  /// (or the host around it) is later compromised.
  health::AuditLog* audit = nullptr;
};

class Supervisor {
 public:
  /// The assembly must outlive the supervisor.
  explicit Supervisor(core::Assembly& assembly, SupervisorConfig config = {});
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Supervise one component under the given policy (the manifest's stanza
  /// normally; an explicit policy opts in a component without one).
  /// Errc::no_such_domain for unknown names; idempotent per component.
  Status watch(const std::string& name, const core::RestartPolicy& policy);
  /// Supervise every component whose manifest carries a restart stanza.
  /// Returns how many are now watched.
  Result<std::size_t> watch_all();

  /// One supervision pass: probe every watched component, confirm deaths,
  /// run due relaunches (respecting each component's backoff), escalate
  /// exhausted budgets. Call from the application's event loop; each call
  /// advances the watched substrates' simulated clocks only by what the
  /// probes and relaunches themselves cost.
  struct TickReport {
    std::size_t probed = 0;
    std::size_t deaths_detected = 0;
    std::size_t restarts = 0;
    std::size_t escalations = 0;
  };
  TickReport tick();

  /// Health of a watched component (running for unwatched-but-known ones
  /// would be a lie — Errc::no_such_domain instead).
  Result<Health> health(const std::string& name) const;
  /// Successful relaunches of this component so far.
  Result<std::uint32_t> restarts_of(const std::string& name) const;
  /// True once any component escalated under Escalation::halted.
  bool halted() const { return halted_; }

  /// Called after every successful relaunch (attestation included) with the
  /// component's name and new incarnation number. Re-establish anything
  /// bound to the dead incarnation here: SecureChannel sessions (reset()
  /// and re-handshake), CompletionQueue attachments (re-mint endpoints).
  using RestartHook =
      std::function<void(const std::string& name, std::uint32_t incarnation)>;
  void on_restart(RestartHook hook) { hooks_.push_back(std::move(hook)); }

  runtime::RecoveryStats stats() const { return stats_.snapshot(); }

  /// The verifier relaunches attest against (null when unconfigured). The
  /// update orchestrator re-points expectations here when it swaps a
  /// component's image, so supervised restarts accept the new identity.
  core::AttestationVerifier* verifier() const { return config_.verifier; }

  /// Every crash incident this supervisor confirmed, in detection order.
  /// Reports open at confirmation (with the corpse's flight-recorder
  /// snapshot) and close at recovery; an escalated incident stays open.
  const std::vector<RecoveryReport>& reports() const { return reports_; }

 private:
  struct Watch {
    core::ComponentRef ref;
    std::string name;
    core::RestartPolicy policy;
    Health state = Health::running;
    substrate::IsolationSubstrate* substrate = nullptr;
    substrate::ChannelId heartbeat = 0;
    /// Probe via measurement() instead of a heartbeat channel (substrates
    /// with no room for a probe domain).
    bool management_probe = false;
    std::uint32_t consecutive_dead = 0;
    std::uint32_t restarts_used = 0;
    Cycles detected_at = 0;      // first dead probe of the current incident
    Cycles next_attempt_at = 0;  // backoff gate for the next relaunch
    static constexpr std::size_t kNoReport = ~std::size_t{0};
    /// Index into reports_ of the current incident's open report.
    std::size_t open_report = kNoReport;
  };

  /// Probe outcome, mapped from the heartbeat receive().
  enum class Probe { alive, dead };

  Result<substrate::DomainId> probe_domain(
      substrate::IsolationSubstrate& substrate);
  Status establish_heartbeat(Watch& watch);
  Probe probe(Watch& watch);
  void confirm_death(Watch& watch, Cycles now, TickReport& report);
  void attempt_restart(Watch& watch, TickReport& report);
  Status verify_relaunch(const Watch& watch);
  void escalate(Watch& watch, TickReport& report);

  core::Assembly& assembly_;
  SupervisorConfig config_;
  std::map<std::string, Watch> watches_;
  /// One probe domain per substrate hosting a supervised component.
  std::map<substrate::IsolationSubstrate*, substrate::DomainId> probes_;
  std::vector<RestartHook> hooks_;
  std::vector<RecoveryReport> reports_;
  runtime::MetricsHub::RecoverySlot own_stats_;
  runtime::MetricsHub::RecoveryRef stats_;
  bool halted_ = false;
};

}  // namespace lateral::supervisor
