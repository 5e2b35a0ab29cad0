// crossing_mix: the substrate crossing and the runtime queue with nothing
// else in the way. A fixed round runs round-robin on all 8 substrates: sync
// calls of 16-256 B, one CompletionQueue batch of 32, and a scatter-gather
// batch of 4 KiB payloads staged through a RegionPool (TPM and fTPM have no
// regions, so their batch takes the copy path). Handlers echo, no crypto.
// In every other workload the crossing and the queue are under 1% of host
// time, so without this one their optimisations would not show.
#include <array>
#include <stdexcept>

#include "catalog.h"
#include "rig.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "runtime/region_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace lateral;

constexpr std::size_t kLanes = 8;  // catalog.h backends()
constexpr std::size_t kSyncCalls = 8;
constexpr std::size_t kCqBatch = 32;
constexpr std::size_t kSgBatch = 4;
constexpr std::size_t kSgBytes = 4096;
constexpr std::size_t kSmallPool = 1024;
constexpr std::size_t kRoundOps = kSyncCalls + kCqBatch + kSgBatch;

struct Lane {
  std::string name;
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<substrate::IsolationSubstrate> sub;
  substrate::DomainId client = 0, server = 0;
  substrate::ChannelId channel = 0;
  std::unique_ptr<runtime::RegionPool> pool;  // null: no region support
  std::unique_ptr<runtime::CompletionQueue> cq;
  std::uint32_t call_span = 0, sg_span = 0;
  // Running counts; the window reads their deltas.
  Cycles sync_cycles = 0;
  std::uint64_t sync_calls = 0;
};

class CrossingMix final : public Workload {
 public:
  CrossingMix(std::uint64_t seed, Tracer& tracer)
      : tracer_(tracer),
        echo_span_(tracer.intern("crossing.echo_handler")),
        submit_span_(tracer.intern("runtime.cq_submit")),
        doorbell_span_(tracer.intern("runtime.cq_doorbell")),
        reap_span_(tracer.intern("runtime.cq_reap")),
        stage_span_(tracer.intern("runtime.pool_stage")) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kSmallPool; ++i)
      small_.push_back(rng.bytes(rng.uniform(16, 256)));
    for (std::size_t i = 0; i < kSgBatch; ++i) {
      headers_[i] = rng.bytes(8);
      bulk_[i] = rng.bytes(kSgBytes);
      Bytes whole = headers_[i];
      whole.insert(whole.end(), bulk_[i].begin(), bulk_[i].end());
      inline_.push_back(std::move(whole));
    }
    if (backends().size() != kLanes)
      throw std::runtime_error("crossing set-up: backend list changed");
    for (const std::string& name : backends())
      lanes_.push_back(make_lane(name));
  }

  std::size_t step(StepLog& log) override {
    Lane& lane = lanes_[step_++ % kLanes];

    // The sync calls are timed as one burst: a clock read around each call
    // would cost a fifth of the call itself.
    const Cycles sync_cycles = lane.machine->now();
    const std::uint64_t sync_allocs = allocations();
    const std::int64_t sync_start = now_ns();
    for (std::size_t j = 0; j < kSyncCalls; ++j, ++op_) {
      const Bytes& payload = small_[op_ % kSmallPool];
      Result<Bytes> reply = Errc::would_block;
      {
        Scope span(tracer_, lane.call_span, op_);
        reply = lane.sub->call(lane.client, lane.channel, payload);
      }
      if (!reply || *reply != payload)
        log.fail("crossing_mix: sync call reply differs from its request");
    }
    const double call_us =
        static_cast<double>(now_ns() - sync_start) / 1e3 / kSyncCalls;
    sync_allocs_ += allocations() - sync_allocs;
    lane.sync_cycles += lane.machine->now() - sync_cycles;
    lane.sync_calls += kSyncCalls;
    log.minor(call_us);
    log.op(call_us, kSyncCalls);

    std::array<runtime::SubmissionId, kCqBatch> ids{};
    const std::uint64_t batch_first = op_;
    const std::uint64_t allocs = allocations();
    const std::int64_t batch_start = now_ns();
    Result<std::vector<runtime::CqEvent>> events = Errc::would_block;
    {
      Scope span(tracer_, submit_span_, op_);
      for (std::size_t i = 0; i < kCqBatch; ++i) {
        auto id = lane.cq->submit(BytesView(small_[(op_ + i) % kSmallPool]));
        ids[i] = id ? *id : 0;
        if (!id) log.fail("crossing_mix: CQ submit refused");
      }
    }
    {
      Scope span(tracer_, doorbell_span_, op_);
      if (!lane.cq->doorbell().ok()) log.fail("crossing_mix: doorbell failed");
    }
    {
      Scope span(tracer_, reap_span_, op_);
      events = lane.cq->reap();
    }
    const double batch_us =
        static_cast<double>(now_ns() - batch_start) / 1e3;
    cq_allocs_ += allocations() - allocs;
    cq_invocations_ += kCqBatch;
    op_ += kCqBatch;
    log.major(batch_us);
    log.op(batch_us / kCqBatch, kCqBatch);
    check_events(events, ids, batch_first, log);

    const std::int64_t sg_start = now_ns();
    Result<substrate::BatchReply> replies = Errc::would_block;
    if (lane.pool) {
      std::array<runtime::RegionPool::Slot, kSgBatch> slots{};
      std::vector<substrate::SgRequest> requests(kSgBatch);
      {
        Scope span(tracer_, stage_span_, op_);
        for (std::size_t i = 0; i < kSgBatch; ++i) {
          auto slot = lane.pool->acquire();
          auto desc = slot ? lane.pool->stage(*slot, bulk_[i])
                           : Result<substrate::RegionDescriptor>(slot.error());
          if (!desc) {
            log.fail("crossing_mix: RegionPool staging failed");
            continue;
          }
          slots[i] = *slot;
          requests[i] = {.header = headers_[i], .segments = {*desc}};
        }
      }
      {
        Scope span(tracer_, lane.sg_span, op_);
        replies = lane.sub->call_batch_sg(lane.client, lane.channel, requests);
      }
      for (const auto& slot : slots) lane.pool->release(slot);
    } else {
      Scope span(tracer_, lane.sg_span, op_);
      replies = lane.sub->call_batch(lane.client, lane.channel, inline_);
    }
    const double sg_us = static_cast<double>(now_ns() - sg_start) / 1e3;
    op_ += kSgBatch;
    log.op(sg_us / kSgBatch, kSgBatch);
    if (!replies || replies->replies.size() != kSgBatch) {
      log.fail("crossing_mix: scatter-gather batch refused");
    } else {
      for (std::size_t i = 0; i < kSgBatch; ++i)
        if (!replies->replies[i] || *replies->replies[i] != inline_[i])
          log.fail("crossing_mix: scatter-gather echo differs");
    }
    return kRoundOps;
  }

  Cycles sim_cycles() const override {
    Cycles sum = 0;
    for (const Lane& lane : lanes_) sum += lane.machine->now();
    return sum;
  }

  void window_begin() override { window_ = counts(); }

  void window_end(std::size_t ops, Metrics& layer) override {
    const Counts now = counts();
    for (std::size_t i = 0; i < kLanes; ++i)
      layer["substrate.sim_cycles_per_call." + lanes_[i].name] =
          per_op(static_cast<double>(now.sync_cycles[i] -
                                     window_.sync_cycles[i]),
                 now.sync_calls[i] - window_.sync_calls[i]);
    std::uint64_t calls = 0;
    for (std::size_t i = 0; i < kLanes; ++i)
      calls += now.sync_calls[i] - window_.sync_calls[i];
    layer["substrate.allocs_per_call"] =
        per_op(static_cast<double>(now.sync_allocs - window_.sync_allocs),
               calls);
    layer["runtime.allocs_per_invocation"] =
        per_op(static_cast<double>(now.cq_allocs - window_.cq_allocs),
               now.cq_invocations - window_.cq_invocations);
    layer["runtime.doorbells_per_op"] =
        per_op(static_cast<double>(now.batches - window_.batches), ops);
    layer["runtime.crossing_cycles_per_op"] = per_op(
        static_cast<double>(now.crossing_cycles - window_.crossing_cycles),
        ops);
  }

  void span_metrics(const Tracer& tracer, std::size_t,
                    Metrics& layer) const override {
    for (const Lane& lane : lanes_) {
      const Tracer::Total call = tracer.total(lane.call_span);
      layer["substrate.call_ns." + lane.name] =
          span_mean(tracer, "substrate.call." + lane.name,
                    static_cast<double>(call.count), 1.0);
      const Tracer::Total sg = tracer.total(lane.sg_span);
      layer["substrate.call_sg_ns." + lane.name] =
          span_mean(tracer, "substrate.call_sg." + lane.name,
                    static_cast<double>(sg.count * kSgBatch), 1.0);
    }
    const Tracer::Total submit = tracer.total(submit_span_);
    const Tracer::Total doorbell = tracer.total(doorbell_span_);
    const Tracer::Total reap = tracer.total(reap_span_);
    const double invocations = static_cast<double>(submit.count * kCqBatch);
    layer["runtime.cq_submit_ns"] =
        span_mean(tracer, "runtime.cq_submit", invocations, 1.0);
    layer["runtime.cq_doorbell_ns"] = span_mean(
        tracer, "runtime.cq_doorbell", static_cast<double>(doorbell.count), 1.0);
    layer["runtime.cq_reap_ns"] = span_mean(
        tracer, "runtime.cq_reap", static_cast<double>(reap.count), 1.0);
    layer["runtime.ns_per_invocation"] = {
        .value = invocations > 0 ? static_cast<double>(submit.self_ns +
                                                       doorbell.self_ns +
                                                       reap.self_ns) /
                                       invocations
                                 : 0.0,
        .samples = submit.count * kCqBatch};
  }

  void finish(StepLog& log) override {
    for (Lane& lane : lanes_) {
      const auto c = hub_.counters("cq." + lane.name).snapshot();
      if (c.submitted != c.completed + c.cancelled)
        log.fail("crossing_mix: cq." + lane.name +
                 " submitted != completed + cancelled");
      if (lane.pool && lane.pool->slots_free() != lane.pool->slots_total())
        log.fail("crossing_mix: RegionPool slot not returned on " + lane.name);
    }
  }

 private:
  struct Counts {
    std::array<Cycles, kLanes> sync_cycles{};
    std::array<std::uint64_t, kLanes> sync_calls{};
    std::uint64_t sync_allocs = 0, cq_allocs = 0, cq_invocations = 0;
    std::uint64_t batches = 0;
    Cycles crossing_cycles = 0;
  };

  Counts counts() {
    Counts c{.sync_allocs = sync_allocs_,
             .cq_allocs = cq_allocs_,
             .cq_invocations = cq_invocations_};
    for (std::size_t i = 0; i < kLanes; ++i) {
      c.sync_cycles[i] = lanes_[i].sync_cycles;
      c.sync_calls[i] = lanes_[i].sync_calls;
      const auto q = hub_.counters("cq." + lanes_[i].name).snapshot();
      c.batches += q.batches;
      c.crossing_cycles += q.crossing_cycles;
    }
    return c;
  }

  void check_events(const Result<std::vector<runtime::CqEvent>>& events,
                    const std::array<runtime::SubmissionId, kCqBatch>& ids,
                    std::uint64_t first, StepLog& log) const {
    if (!events || events->size() != kCqBatch) {
      log.fail("crossing_mix: CQ reap lost completions");
      return;
    }
    // A successful batch's ids are consecutive, so an event's offset from
    // the first id is its request's index; ids[i] confirms it.
    for (const runtime::CqEvent& event : *events) {
      const std::size_t i = event.id - ids[0];
      if (i >= kCqBatch || ids[i] != event.id || !event.ok() ||
          event.payload != small_[(first + i) % kSmallPool])
        log.fail("crossing_mix: CQ completion differs from its request");
    }
  }

  Lane make_lane(const std::string& name) {
    Lane lane;
    lane.name = name;
    lane.machine = make_machine("mix-" + name);
    auto sub = registry().create(name, *lane.machine);
    if (!sub) throw std::runtime_error("crossing set-up: no substrate " + name);
    lane.sub = std::move(*sub);
    lane.server = *lane.sub->create_domain(tc_spec("server"));
    // SEP admits one trusted and one legacy domain; a legacy caller also
    // matches how FIG2 drives the substrates that can host one.
    const bool legacy_ok = has_feature(lane.sub->info().features,
                                       substrate::Feature::legacy_hosting);
    lane.client = *lane.sub->create_domain(legacy_ok ? legacy_spec("client")
                                                     : tc_spec("client"));
    lane.channel = *lane.sub->create_channel(lane.client, lane.server,
                                             {.max_message_bytes = 16384});
    substrate::IsolationSubstrate* sub_ptr = lane.sub.get();
    (void)lane.sub->set_handler(
        lane.server,
        [this, sub_ptr, server = lane.server](
            const substrate::Invocation& inv) -> Result<Bytes> {
          Scope span(tracer_, echo_span_, op_);
          Bytes reply(inv.data.begin(), inv.data.end());
          for (const substrate::RegionDescriptor& seg : inv.segments) {
            auto view = sub_ptr->region_view(server, seg);
            if (!view) return view.error();
            reply.insert(reply.end(), view->begin(), view->end());
          }
          return reply;
        });
    if (lane.sub->supports_regions()) {
      const std::size_t bytes = kSgBatch * kSgBytes;
      auto region = lane.sub->create_region(lane.client, lane.server, bytes);
      if (!region || !lane.sub->map_region(lane.client, *region).ok() ||
          !lane.sub->map_region(lane.server, *region).ok())
        throw std::runtime_error("crossing set-up: region on " + name);
      lane.pool = std::make_unique<runtime::RegionPool>(
          *lane.sub, lane.client, *region, bytes, kSgBytes);
    }
    runtime::CompletionQueueConfig config;
    config.adaptive.initial = kCqBatch;
    config.adaptive.adaptive = false;
    config.hub = &hub_;
    config.label = "cq." + name;
    lane.cq = std::make_unique<runtime::CompletionQueue>(
        *lane.sub, lane.client, lane.channel, config);
    lane.call_span = tracer_.intern("substrate.call." + name);
    lane.sg_span = tracer_.intern("substrate.call_sg." + name);
    return lane;
  }

  Tracer& tracer_;
  std::uint32_t echo_span_, submit_span_, doorbell_span_, reap_span_,
      stage_span_;
  std::vector<Bytes> small_;
  std::array<Bytes, kSgBatch> headers_, bulk_;
  std::vector<Bytes> inline_;  // header + bulk: the copy path's requests
  runtime::MetricsHub hub_;
  std::vector<Lane> lanes_;
  std::uint64_t op_ = 0;
  std::uint64_t step_ = 0;
  std::uint64_t sync_allocs_ = 0, cq_allocs_ = 0, cq_invocations_ = 0;
  Counts window_;
};

}  // namespace

std::unique_ptr<Workload> make_crossing_mix(std::uint64_t seed,
                                            Tracer& tracer) {
  return std::make_unique<CrossingMix>(seed, tracer);
}

}  // namespace perfbench
