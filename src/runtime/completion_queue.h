// CompletionQueue — the runtime's one invocation queue (lateral::cq).
//
// The paper's horizontal paradigm pays a boundary-crossing toll on every
// component interaction; at serving scale that toll dominates. The queue is
// the io_uring answer: a bounded SPSC submission ring over a substrate
// channel, and a DOORBELL — one crossing that carries everything queued
// across the boundary (IsolationSubstrate::call_batch / call_batch_sg, the
// fixed crossing cost paid ONCE per direction) and lands every completion in
// a ready queue of CqEvents — plus batch drain APIs (reap /
// for_each_completion) so completions are consumed at the same granularity
// they are produced.
//
// Batch depth is adaptive. An AdaptiveBatchController watches the windowed
// p50/p99 of submit->complete latency (the PR-5 log2 histograms, computed
// per doorbell window, not cumulatively) and the ring occupancy:
//   - under load (occupancy reached the target) it doubles the target, but
//     only while the tail has headroom — growth must not push the windowed
//     p99 past tail_factor x the best p50 ever observed (the latency floor,
//     which is what the smallest batches cost). On substrates whose
//     crossing is byte-dominated (NoC) this is what stops depth from
//     climbing into latency territory that batching cannot buy back;
//   - when the queue runs shallow it halves the target, so sparse traffic
//     is flushed in small, low-latency batches;
//   - a flush_age bound rings the doorbell for stragglers: an entry never
//     waits longer than flush_age cycles just because traffic went quiet.
// The chosen depth is exported through MetricsHub (adaptive_depth /
// adaptive_grows / adaptive_shrinks / doorbells) and, when tracing is on,
// as a SpanPhase::doorbell span whose size field carries the depth.
//
// Contract:
//   - submit paths are lossless-or-rejected: a full submission ring refuses
//     with Errc::exhausted (backpressure) before an id or a trace span is
//     minted — nothing is ever dropped;
//   - every accepted invocation terminates in exactly one CqEvent: completed
//     (reply, or a refusal from the handler or the substrate), cancelled, or
//     timed_out; the metrics counters mirror this one-to-one;
//   - deadlines are absolute simulated cycles, checked against the
//     substrate machine's clock when the doorbell rings;
//   - one doorbell == at most one boundary crossing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "runtime/metrics.h"
#include "runtime/region_pool.h"
#include "runtime/spsc_ring.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::runtime {

using SubmissionId = std::uint64_t;

struct SubmitOptions {
  /// Absolute deadline in simulated machine cycles; 0 = no deadline. An
  /// invocation still queued when the clock passes its deadline completes
  /// with Errc::timed_out instead of running.
  Cycles deadline = 0;
};

/// One completed invocation, as drained from the ready queue: plain data,
/// no shared state, no allocation beyond the payload itself.
struct CqEvent {
  SubmissionId id = 0;
  Errc status = Errc::ok;
  /// Reply payload (meaningful when status == ok).
  Bytes payload;
  /// Submit->complete simulated cycles (zero when the invocation never
  /// crossed: cancelled, deadline-expired, epoch-fenced).
  Cycles cycles = 0;

  bool ok() const { return status == Errc::ok; }
};

struct AdaptiveConfig {
  std::size_t min_batch = 4;
  std::size_t max_batch = 256;
  /// Starting depth target; 0 means min_batch. A fixed-depth queue
  /// (adaptive = false) stays at this value forever.
  std::size_t initial = 0;
  /// Tail headroom: growth stops once doubling could push the windowed p99
  /// past tail_factor x the latency floor (best windowed p50 seen), and a
  /// window that already violates the bound forces a shrink.
  std::uint64_t tail_factor = 8;
  /// maybe_doorbell() rings when the oldest queued entry has waited this
  /// many cycles, regardless of depth. 0 = never ring on age.
  Cycles flush_age = 0;
  bool adaptive = true;
};

/// Histogram-driven batch-depth controller. Pure policy — no rings, no
/// clocks — so the edge cases (cold start, saturation, tail damping) are
/// unit-testable without a substrate.
class AdaptiveBatchController {
 public:
  explicit AdaptiveBatchController(AdaptiveConfig config);

  std::size_t depth() const { return depth_; }
  std::uint64_t grows() const { return grows_; }
  std::uint64_t shrinks() const { return shrinks_; }

  /// Feed one doorbell window: `occupancy` = entries flushed by the
  /// doorbell, window_p50/p99 = that window's latency percentiles (0 when
  /// the window recorded nothing, e.g. every entry was cancelled — the
  /// cold-start case, where occupancy alone drives the decision).
  void observe(std::size_t occupancy, Cycles window_p50, Cycles window_p99);

 private:
  AdaptiveConfig config_;
  std::size_t depth_;
  /// Best (smallest) windowed p50 seen — what a small batch costs on this
  /// substrate; the reference the tail bound is measured against.
  Cycles floor_p50_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

struct CompletionQueueConfig {
  /// Submission ring depth, rounded up to a power of two and raised to at
  /// least adaptive.max_batch so the controller's deepest batch always
  /// fits. This bound IS the backpressure contract.
  std::size_t depth = 512;
  AdaptiveConfig adaptive;
  /// Optional shared metrics sink; falls back to queue-local counters.
  MetricsHub* hub = nullptr;
  std::string label;
};

class CompletionQueue {
 public:
  /// Attach to one side of an assembly channel. The channel's epoch is
  /// captured at attach time: if the peer is restarted by a supervisor
  /// (epoch bump), every invocation queued here completes with
  /// Errc::stale_epoch at the next doorbell — delivered, not lost — and the
  /// caller re-attaches via a fresh Assembly::endpoint().
  explicit CompletionQueue(const core::Endpoint& endpoint,
                           CompletionQueueConfig config = {});
  /// Raw-substrate attach (tests, benches); captures the current epoch.
  CompletionQueue(substrate::IsolationSubstrate& substrate,
                  substrate::DomainId actor, substrate::ChannelId channel,
                  CompletionQueueConfig config = {});

  // --- Submission ring ------------------------------------------------------
  /// Enqueue an invocation; returns its id. Errc::exhausted when the
  /// submission ring is full — ring the doorbell and retry.
  Result<SubmissionId> submit(BytesView request, SubmitOptions opts = {});
  /// Move-in overload: adopts the request buffer instead of copying it. On
  /// substrates without region support this is the whole fallback story —
  /// the payload is copied exactly once (by call_batch's delivery).
  Result<SubmissionId> submit(Bytes&& request, SubmitOptions opts = {});
  /// Enqueue a scatter-gather invocation: a small inline header plus
  /// descriptors naming payload already staged in a shared grant region
  /// (see RegionPool::stage). The doorbell crosses with O(descriptors)
  /// bytes for this entry regardless of payload size.
  Result<SubmissionId> submit_sg(BytesView header,
                                 std::vector<substrate::RegionDescriptor>
                                     segments,
                                 SubmitOptions opts = {});
  /// Lease a pool slot, stage `payload` into it (the single copy), and
  /// submit header+descriptor. The slot returns to the pool when this
  /// submission's event is formed — by then the peer's handler has
  /// consumed the bytes in place. Errc::exhausted means the pool (or the
  /// ring) is full, stale_epoch that the region was re-epoched (re-wire via
  /// Assembly::region_between); callers that want the copy fallback call
  /// submit() instead.
  Result<SubmissionId> submit_staged(RegionPool& pool, BytesView header,
                                     BytesView payload, SubmitOptions opts = {});
  /// Withdraw a still-queued invocation; it surfaces as a cancelled event at
  /// the next doorbell. Errc::invalid_argument when the id is unknown or
  /// already rung.
  Status cancel(SubmissionId id);

  // --- Doorbell -------------------------------------------------------------
  /// Ring unconditionally: carry the submission ring across (one crossing;
  /// cancelled and deadline-expired entries complete without running) and
  /// land every completion in the ready queue, then feed the adaptive
  /// controller with the window. No-op (no charge) when nothing is queued.
  /// Refusals of the whole batch (dead peer, revoked channel, stale epoch)
  /// arrive as events, so the doorbell itself does not fail.
  Status doorbell();
  /// Ring only when policy says so: occupancy reached the controller's
  /// depth target, or the oldest queued entry is older than flush_age.
  Status maybe_doorbell();

  // --- Completion drain -----------------------------------------------------
  /// Drain up to `max` ready events (0 = all). Never blocks; rings the
  /// doorbell at most once (only when nothing is ready but submissions are
  /// queued). A non-zero `deadline` already in the past suppresses even
  /// that crossing: past-deadline reaps only return what is already ready.
  Result<std::vector<CqEvent>> reap(std::size_t max = 0, Cycles deadline = 0);
  /// Apply `fn` to every ready event (no doorbell, no crossing) and return
  /// how many were consumed.
  std::size_t for_each_completion(const std::function<void(CqEvent&)>& fn);

  // --- Introspection --------------------------------------------------------
  std::size_t pending() const { return submissions_.size(); }
  std::size_t ready() const { return ready_.size(); }
  /// The controller's current batch-depth target.
  std::size_t batch_depth() const { return controller_.depth(); }
  InvocationCounters metrics() const { return counters_.snapshot(); }

 private:
  struct Pending {
    SubmissionId id = 0;
    Bytes request;  // inline payload, or the SG header
    std::vector<substrate::RegionDescriptor> segments;  // non-empty => SG
    Cycles deadline = 0;
    /// Pool to return the staged slot to once the event is formed
    /// (submit_staged only).
    RegionPool* pool = nullptr;
    RegionPool::Slot slot;
    /// Trace context captured at submit (zero when the submitter's thread
    /// carried none): parent_span is this submission's own submit span, so
    /// the dispatch span the substrate mints at the doorbell chains under it.
    trace::TraceContext ctx;
    /// Machine clock at submit; submit->complete latency is measured from
    /// it (always captured — latency accounting is not gated on tracing).
    Cycles submitted_at = 0;
  };

  Result<SubmissionId> enqueue(Pending pending);
  /// The crossing half of the doorbell: pop every queued entry and turn
  /// each into exactly one ready event.
  void flush();
  /// The single terminal path for every accepted invocation: bump exactly
  /// one terminal counter, close the submit span (when `phase` names a
  /// terminal span and the submission was traced), return the staged slot,
  /// and append the event. Every way out of flush() funnels through here
  /// so no path can leak a RegionPool slot or skip the accounting.
  void finish(Pending& pending, std::uint64_t InvocationCounters::* counter,
              std::optional<trace::SpanPhase> phase, Result<Bytes> result,
              Cycles latency = 0);

  substrate::IsolationSubstrate& substrate_;
  substrate::DomainId actor_;
  substrate::ChannelId channel_;
  std::uint64_t epoch_;  // channel epoch at attach; the doorbell checks it
  SpscRing<Pending> submissions_;
  /// Ids are minted densely, so the queued ones are always the last
  /// pending() ids below next_id_.
  SubmissionId next_id_ = 1;
  std::set<SubmissionId> cancelled_;  // queued ids withdrawn by cancel()
  std::deque<CqEvent> ready_;
  AdaptiveBatchController controller_;
  /// Machine clock when the oldest currently-queued entry was submitted
  /// (meaningful only while pending() > 0); drives the flush_age bound.
  Cycles oldest_submitted_at_ = 0;
  Cycles flush_age_ = 0;
  MetricsHub::CounterSlot own_counters_;
  MetricsHub::CounterRef counters_;
};

}  // namespace lateral::runtime
