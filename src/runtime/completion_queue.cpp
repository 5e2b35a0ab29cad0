#include "runtime/completion_queue.h"

#include <algorithm>
#include <utility>

namespace lateral::runtime {

// --- AdaptiveBatchController ------------------------------------------------

AdaptiveBatchController::AdaptiveBatchController(AdaptiveConfig config)
    : config_(config) {
  if (config_.min_batch == 0) config_.min_batch = 1;
  if (config_.max_batch < config_.min_batch)
    config_.max_batch = config_.min_batch;
  depth_ = config_.initial == 0
               ? config_.min_batch
               : std::clamp(config_.initial, config_.min_batch,
                            config_.max_batch);
}

void AdaptiveBatchController::observe(std::size_t occupancy, Cycles window_p50,
                                      Cycles window_p99) {
  if (!config_.adaptive) return;
  // The latency floor is what the smallest batches cost on this substrate;
  // it only ever ratchets down. An empty window (p50 == 0: cold start, or
  // nothing in the window actually crossed) leaves it untouched.
  if (window_p50 > 0 && (floor_p50_ == 0 || window_p50 < floor_p50_))
    floor_p50_ = window_p50;
  const Cycles bound = floor_p50_ * config_.tail_factor;

  // Tail damper first: a window whose p99 already blew the bound means the
  // current depth is buying throughput with latency we promised not to
  // spend — back off regardless of occupancy.
  if (window_p99 > 0 && bound > 0 && window_p99 > bound) {
    if (depth_ / 2 >= config_.min_batch) {
      depth_ /= 2;
      ++shrinks_;
    }
    return;
  }

  if (occupancy >= depth_) {
    // Saturated: deepen for throughput, but only with tail headroom —
    // doubling the batch can as much as double the per-entry latency on a
    // byte-dominated crossing, so require the doubled p99 to still fit.
    const bool headroom = window_p99 == 0 || bound == 0 ||
                          window_p99 * 2 <= bound;
    if (headroom && depth_ * 2 <= config_.max_batch) {
      depth_ *= 2;
      ++grows_;
    }
  } else if (occupancy * 4 <= depth_ && depth_ / 2 >= config_.min_batch) {
    // Shallow: shrink for latency. The 4x hysteresis keeps a queue
    // hovering just under target from oscillating.
    depth_ /= 2;
    ++shrinks_;
  }
}

// --- CompletionQueue --------------------------------------------------------

CompletionQueue::CompletionQueue(substrate::IsolationSubstrate& substrate,
                                 substrate::DomainId actor,
                                 substrate::ChannelId channel,
                                 CompletionQueueConfig config)
    : substrate_(substrate),
      actor_(actor),
      channel_(channel),
      epoch_(substrate.channel_epoch(channel).value_or(0)),
      submissions_(std::max<std::size_t>(
          {config.depth, config.adaptive.max_batch, 1})),
      controller_(config.adaptive),
      flush_age_(config.adaptive.flush_age),
      counters_(config.hub ? config.hub->counters(config.label)
                           : MetricsHub::CounterRef(&own_counters_)) {}

CompletionQueue::CompletionQueue(const core::Endpoint& endpoint,
                                 CompletionQueueConfig config)
    : CompletionQueue(*endpoint.substrate(), endpoint.actor(),
                      endpoint.channel(), std::move(config)) {
  epoch_ = endpoint.epoch();
}

Result<SubmissionId> CompletionQueue::enqueue(Pending pending) {
  // Refuse before minting anything: a refused submission gets no id and no
  // submit span, so no span is left waiting for a terminal one.
  if (submissions_.full()) {
    ++counters_->rejected;
    return Errc::exhausted;
  }
  pending.id = next_id_++;
  pending.submitted_at = substrate_.machine().now();
  if (const trace::TraceContext& cur = trace::current_context();
      substrate_.tracing_active() && cur.sampled()) {
    std::uint64_t total = pending.request.size();
    for (const substrate::RegionDescriptor& seg : pending.segments)
      total += seg.length;
    const std::uint32_t span = substrate_.tracer()->next_span();
    substrate_.stamp_span(actor_, cur, span, trace::SpanPhase::submit,
                          pending.request, total);
    pending.ctx = {cur.trace_id, span, cur.flags};
  }
  const SubmissionId id = pending.id;
  // The flush_age bound needs the age of the *oldest* queued entry; that
  // entry is the one that found the ring empty.
  if (submissions_.empty()) oldest_submitted_at_ = pending.submitted_at;
  (void)submissions_.push(std::move(pending));  // capacity checked above
  ++counters_->submitted;
  counters_->record_depth(submissions_.size());
  return id;
}

Result<SubmissionId> CompletionQueue::submit(BytesView request,
                                             SubmitOptions opts) {
  return submit(Bytes(request.begin(), request.end()), opts);
}

Result<SubmissionId> CompletionQueue::submit(Bytes&& request,
                                             SubmitOptions opts) {
  Pending pending;
  pending.request = std::move(request);
  pending.deadline = opts.deadline;
  return enqueue(std::move(pending));
}

Result<SubmissionId> CompletionQueue::submit_sg(
    BytesView header, std::vector<substrate::RegionDescriptor> segments,
    SubmitOptions opts) {
  if (segments.empty()) return Errc::invalid_argument;
  Pending pending;
  pending.request.assign(header.begin(), header.end());
  pending.segments = std::move(segments);
  pending.deadline = opts.deadline;
  return enqueue(std::move(pending));
}

Result<SubmissionId> CompletionQueue::submit_staged(RegionPool& pool,
                                                    BytesView header,
                                                    BytesView payload,
                                                    SubmitOptions opts) {
  auto slot = pool.acquire();
  if (!slot) return slot.error();
  auto desc = pool.stage(*slot, payload);
  if (!desc) {
    pool.release(*slot);
    return desc.error();
  }
  Pending pending;
  pending.request.assign(header.begin(), header.end());
  pending.segments.push_back(*desc);
  pending.deadline = opts.deadline;
  pending.pool = &pool;
  pending.slot = *slot;
  auto id = enqueue(std::move(pending));
  if (!id) pool.release(*slot);  // ring full: the lease must not leak
  return id;
}

Status CompletionQueue::cancel(SubmissionId id) {
  if (id >= next_id_ || id + submissions_.size() < next_id_)
    return Errc::invalid_argument;
  cancelled_.insert(id);
  return Status::success();
}

void CompletionQueue::finish(Pending& pending,
                             std::uint64_t InvocationCounters::* counter,
                             std::optional<trace::SpanPhase> phase,
                             Result<Bytes> result, Cycles latency) {
  {
    // One locked statement covers both counter updates.
    auto locked = counters_.operator->();
    InvocationCounters* c = locked.operator->();
    ++(c->*counter);
    if (latency > 0) c->record_latency(latency);
  }
  // Terminal without running: close the submit span in place (same span
  // id), so the ring shows submit -> cancelled/timed_out, never a dangling
  // submit. Invocations that ran get their dispatch/complete spans from the
  // substrate instead.
  if (phase && pending.ctx.sampled())
    substrate_.stamp_span(actor_, pending.ctx, pending.ctx.parent_span,
                          *phase, {}, 0);
  if (pending.pool) pending.pool->release(pending.slot);
  CqEvent& event = ready_.emplace_back();
  event.id = pending.id;
  event.cycles = latency;
  if (result)
    event.payload = std::move(*result);
  else
    event.status = result.error();
}

void CompletionQueue::flush() {
  const Cycles now = substrate_.machine().now();
  std::vector<Pending> batch;
  batch.reserve(submissions_.size());
  while (auto pending = submissions_.pop()) {
    if (cancelled_.erase(pending->id) > 0) {
      finish(*pending, &InvocationCounters::cancelled,
             trace::SpanPhase::cancelled, Errc::cancelled);
    } else if (pending->deadline != 0 && now > pending->deadline) {
      finish(*pending, &InvocationCounters::timed_out,
             trace::SpanPhase::timed_out, Errc::timed_out);
    } else {
      batch.push_back(std::move(*pending));
    }
  }
  if (batch.empty()) return;

  // Epoch fence: a supervised restart of the peer re-epochs the channel,
  // and everything queued here was addressed to the old incarnation. Fail
  // the whole batch fast with stale_epoch (lossless — every invocation
  // still gets its event) so the holder re-attaches.
  Errc fence = Errc::ok;
  if (const auto epoch_now = substrate_.channel_epoch(channel_); !epoch_now)
    fence = epoch_now.error();
  else if (*epoch_now != epoch_)
    fence = Errc::stale_epoch;
  if (fence != Errc::ok) {
    for (Pending& pending : batch)
      finish(pending, &InvocationCounters::completed, std::nullopt, fence);
    return;
  }

  // One TraceContext represents the whole batch (the crossing is singular
  // even when the batch is not): the first traced submission's. Installing
  // it as the thread's context is what hands it to the substrate, which
  // then mints per-request dispatch/complete spans under it.
  const Pending* first_traced = nullptr;
  for (const Pending& pending : batch)
    if (pending.ctx.sampled()) {
      first_traced = &pending;
      break;
    }
  std::optional<trace::TraceScope> trace_scope;
  if (substrate_.tracing_active() && first_traced) {
    substrate_.stamp_span(actor_, first_traced->ctx,
                          substrate_.tracer()->next_span(),
                          trace::SpanPhase::flush, {}, batch.size());
    trace_scope.emplace(first_traced->ctx);
  }

  // Mixed batches ride the scatter-gather engine: an inline entry becomes
  // an SgRequest with no segments, which crosses at exactly the same cost
  // as it would on call_batch. A pure-inline batch keeps the plain path
  // (and its moved-buffer zero-recopy property).
  const bool has_sg = std::any_of(
      batch.begin(), batch.end(),
      [](const Pending& pending) { return !pending.segments.empty(); });

  Result<substrate::BatchReply> reply = Errc::would_block;  // placeholder
  // Per-entry size of the sync-equivalent *copy* message: inline bytes, or
  // header + the payload bytes the descriptors name. This is the honest
  // baseline the amortization/zero-copy savings are measured against.
  std::vector<std::size_t> sync_sizes(batch.size(), 0);

  if (!has_sg) {
    std::vector<Bytes> requests;
    requests.reserve(batch.size());
    for (Pending& pending : batch)
      requests.push_back(std::move(pending.request));
    for (std::size_t i = 0; i < batch.size(); ++i)
      sync_sizes[i] = requests[i].size();
    reply = substrate_.call_batch(actor_, channel_, requests);
  } else {
    std::vector<substrate::SgRequest> requests;
    requests.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending& pending = batch[i];
      std::size_t payload = 0;
      for (const substrate::RegionDescriptor& seg : pending.segments)
        payload += seg.length;
      sync_sizes[i] = pending.request.size() + payload;
      counters_->zero_copy_bytes += payload;
      substrate::SgRequest request;
      request.header = std::move(pending.request);
      request.segments = std::move(pending.segments);
      requests.push_back(std::move(request));
    }
    reply = substrate_.call_batch_sg(actor_, channel_, requests);
  }
  counters_->record_batch(batch.size());
  if (!reply) {
    // Batch-level refusal (no handler, revoked channel, ...): every
    // invocation gets the refusal as its event — delivered, not lost.
    for (Pending& pending : batch)
      finish(pending, &InvocationCounters::completed, std::nullopt,
             reply.error());
    return;
  }

  // Cycle accounting: what would the same calls have cost one-at-a-time,
  // with every payload byte copied?
  Cycles sync_equivalent = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Result<Bytes>& r = reply->replies[i];
    sync_equivalent += substrate_.message_cost(sync_sizes[i]) +
                       substrate_.message_cost(r.ok() ? r->size() : 0);
  }
  counters_->sync_equivalent_cycles += sync_equivalent;
  counters_->crossing_cycles += reply->crossing_cycles;

  const Cycles after = substrate_.machine().now();
  for (std::size_t i = 0; i < batch.size(); ++i)
    finish(batch[i], &InvocationCounters::completed, std::nullopt,
           std::move(reply->replies[i]), after - batch[i].submitted_at);
}

Status CompletionQueue::doorbell() {
  const std::size_t occupancy = submissions_.size();
  if (occupancy == 0) return Status::success();

  // One span represents the coalesced crossing; its size field carries the
  // controller's depth target so an exported timeline shows the depth
  // trajectory alongside the flush/dispatch spans the flush mints.
  if (const trace::TraceContext& cur = trace::current_context();
      substrate_.tracing_active() && cur.sampled())
    substrate_.stamp_span(actor_, cur, substrate_.tracer()->next_span(),
                          trace::SpanPhase::doorbell, {},
                          controller_.depth());

  const std::size_t first_new = ready_.size();
  flush();

  // This window's latency histogram (the same log2 histogram the
  // cumulative counters keep — but windowed, so a long sparse phase cannot
  // poison the controller's view of what the current depth costs).
  InvocationCounters window;
  for (auto it = ready_.begin() + static_cast<std::ptrdiff_t>(first_new);
       it != ready_.end(); ++it)
    if (it->cycles > 0) window.record_latency(it->cycles);
  controller_.observe(occupancy, window.latency_percentile(0.50),
                      window.latency_percentile(0.99));

  auto locked = counters_.operator->();
  InvocationCounters* c = locked.operator->();
  ++c->doorbells;
  c->adaptive_depth = controller_.depth();
  c->adaptive_grows = controller_.grows();
  c->adaptive_shrinks = controller_.shrinks();
  return Status::success();
}

Status CompletionQueue::maybe_doorbell() {
  const std::size_t queued = submissions_.size();
  if (queued == 0) return Status::success();
  if (queued >= controller_.depth()) return doorbell();
  if (flush_age_ > 0 &&
      substrate_.machine().now() - oldest_submitted_at_ >= flush_age_)
    return doorbell();
  return Status::success();
}

Result<std::vector<CqEvent>> CompletionQueue::reap(std::size_t max,
                                                   Cycles deadline) {
  if (ready_.empty() && !submissions_.empty() &&
      (deadline == 0 || substrate_.machine().now() <= deadline)) {
    if (const Status s = doorbell(); !s.ok()) return s.error();
  }
  std::vector<CqEvent> out;
  const std::size_t n =
      max == 0 ? ready_.size() : std::min(max, ready_.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(ready_.front()));
    ready_.pop_front();
  }
  return out;
}

std::size_t CompletionQueue::for_each_completion(
    const std::function<void(CqEvent&)>& fn) {
  std::size_t n = 0;
  while (!ready_.empty()) {
    CqEvent event = std::move(ready_.front());
    ready_.pop_front();
    fn(event);
    ++n;
  }
  return n;
}

}  // namespace lateral::runtime
