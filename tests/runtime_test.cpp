// lateral::runtime — rings, the zero-copy data plane, async RPC, and the
// batched path's conformance across substrates.
//
// The load-bearing property throughout: lossless backpressure. Every
// accepted submission terminates in exactly one of {completed, cancelled,
// timed_out}, every refused submission surfaces a distinct Errc, and the
// counters reconcile: submitted == completed + cancelled + timed_out +
// in-flight, with rejections tallied separately.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <thread>

#include "net/secure_channel.h"
#include "runtime/async_proxy.h"
#include "runtime/completion_queue.h"
#include "runtime/spsc_ring.h"
#include "test_support.h"

namespace lateral::runtime {
namespace {

using test::tc_spec;

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, FullAndEmpty) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pop().has_value());
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(3));  // refused, not overwritten
  EXPECT_EQ(*ring.pop(), 1);
  EXPECT_TRUE(ring.push(3));
  EXPECT_EQ(*ring.pop(), 2);
  EXPECT_EQ(*ring.pop(), 3);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FifoAcrossManyWraparounds) {
  SpscRing<std::size_t> ring(4);
  std::size_t next_in = 0, next_out = 0;
  // Stay near-full so the indices wrap dozens of times.
  for (int round = 0; round < 100; ++round) {
    while (ring.push(next_in)) ++next_in;
    ASSERT_TRUE(ring.full());
    EXPECT_EQ(*ring.pop(), next_out++);
    EXPECT_EQ(*ring.pop(), next_out++);
  }
  while (auto v = ring.pop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(SpscRing, ThreadedProducerConsumer) {
  SpscRing<std::size_t> ring(8);
  constexpr std::size_t kCount = 20000;
  std::thread producer([&] {
    for (std::size_t i = 0; i < kCount;) {
      if (ring.push(i)) ++i;
    }
  });
  std::size_t expected = 0;
  while (expected < kCount) {
    if (auto v = ring.pop()) {
      ASSERT_EQ(*v, expected);  // order survives concurrency
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(InvocationCountersTest, LatencyHistogramAndPercentiles) {
  InvocationCounters c;
  // Buckets: [2^i, 2^(i+1)). 1 -> bucket 0, 3 -> bucket 1, 1000 -> bucket 9.
  c.record_latency(1);
  c.record_latency(3);
  c.record_latency(3);
  c.record_latency(1000);
  EXPECT_EQ(c.latency_count, 4u);
  EXPECT_EQ(c.latency_histogram[0], 1u);
  EXPECT_EQ(c.latency_histogram[1], 2u);
  EXPECT_EQ(c.latency_histogram[9], 1u);
  EXPECT_EQ(c.mean_latency_cycles(), (1u + 3 + 3 + 1000) / 4);
  EXPECT_EQ(c.latency_percentile(0.0), 1u);    // bucket 0 upper bound: 2^1-1
  EXPECT_EQ(c.latency_percentile(0.5), 3u);    // bucket 1 upper bound: 2^2-1
  EXPECT_EQ(c.latency_percentile(1.0), 1023u); // bucket 9 upper bound: 2^10-1
  EXPECT_EQ(InvocationCounters{}.latency_percentile(0.99), 0u);
}

TEST(MetricsHubTest, ConcurrentLabelRegistrationIsSafe) {
  // The TSan regression for the hub's locking: many threads register
  // distinct labels (mutating the map) and hammer one *shared* label's
  // fields through the locking Ref, while a reader snapshots via all().
  // Pre-fix this raced on std::map rebalancing and on the field copies.
  MetricsHub hub;
  constexpr int kThreads = 8;
  constexpr int kLabels = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hub, t] {
      MetricsHub::CounterRef shared = hub.counters("shared");
      for (int i = 0; i < kLabels; ++i) {
        MetricsHub::CounterRef c =
            hub.counters("worker-" + std::to_string(t) + "-" +
                         std::to_string(i));
        ++c->submitted;  // slot-locked for the statement
        ++c->completed;
        ++shared->submitted;  // contended across all workers
        hub.recovery("rec-" + std::to_string(t))->kills_detected = 1;
      }
    });
  }
  std::thread reader([&hub] {
    for (int i = 0; i < 100; ++i) {
      const auto snapshot = hub.all();  // copies each slot under its lock
      for (const auto& [label, c] : snapshot)
        if (label != "shared") EXPECT_LE(c.completed, 1u);
      (void)hub.all_recovery();
    }
  });
  for (std::thread& worker : workers) worker.join();
  reader.join();
  EXPECT_EQ(hub.all().size(), kThreads * kLabels + 1u);
  EXPECT_EQ(hub.all_recovery().size(), kThreads);
  // Refs handed out earlier stay stable (std::map node stability), and the
  // contended label lost no increments.
  EXPECT_EQ(hub.counters("worker-0-0")->submitted, 1u);
  EXPECT_EQ(hub.counters("shared").snapshot().submitted,
            static_cast<std::uint64_t>(kThreads) * kLabels);
}

// ---------------------------------------------------------------------------
// Zero-copy data plane: RegionPool + scatter-gather CompletionQueue

class ZeroCopyBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("zerocopy");
    substrate_ = *test::shared_registry().create("microkernel", *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    server_ = *substrate_->create_domain(tc_spec("server"));
    channel_ = *substrate_->create_channel(client_, server_);
    region_ = *substrate_->create_region(client_, server_, 4096);
    ASSERT_TRUE(substrate_->map_region(client_, region_).ok());
    ASSERT_TRUE(substrate_->map_region(server_, region_).ok());
    ASSERT_TRUE(
        substrate_
            ->set_handler(
                server_,
                [this](const substrate::Invocation& inv) -> Result<Bytes> {
                  ++handler_runs_;
                  // Consumer side of the plane: header inline, payload read
                  // in place from the grant region.
                  std::string assembled = to_string(inv.data);
                  for (const substrate::RegionDescriptor& seg : inv.segments) {
                    auto view = substrate_->region_view(server_, seg);
                    if (!view) return view.error();
                    assembled.append(view->begin(), view->end());
                  }
                  return to_bytes("got:" + assembled);
                })
            .ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
  substrate::RegionId region_ = 0;
  int handler_runs_ = 0;

  /// Ring the doorbell and return id's event (every other event dropped).
  static CqEvent ring_for(CompletionQueue& cq, SubmissionId id) {
    CqEvent out;
    out.status = Errc::invalid_argument;
    auto events = cq.reap();
    if (events)
      for (CqEvent& event : *events)
        if (event.id == id) out = std::move(event);
    return out;
  }
};

TEST_F(ZeroCopyBatchTest, RegionPoolLeaseStageRelease) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  EXPECT_EQ(pool.slots_total(), 4u);
  EXPECT_EQ(pool.slots_free(), 4u);

  auto slot = pool.acquire();
  ASSERT_TRUE(slot.ok());
  auto desc = pool.stage(*slot, to_bytes("payload"));
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->length, 7u);
  auto view = substrate_->region_view(server_, *desc);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(to_string(*view), "payload");

  // Oversized payloads are refused at stage time, not truncated.
  EXPECT_EQ(pool.stage(*slot, Bytes(2048, 1)).error(), Errc::invalid_argument);
  EXPECT_EQ(pool.stage(*slot, Bytes{}).error(), Errc::invalid_argument);

  // Drain the pool: the empty pool is backpressure, not an error state.
  auto s2 = pool.acquire(), s3 = pool.acquire(), s4 = pool.acquire();
  ASSERT_TRUE(s2.ok() && s3.ok() && s4.ok());
  EXPECT_EQ(pool.acquire().error(), Errc::exhausted);
  pool.release(*slot);
  EXPECT_EQ(pool.slots_free(), 1u);
  EXPECT_TRUE(pool.acquire().ok());
}

TEST_F(ZeroCopyBatchTest, SubmitSgDeliversInPlacePayload) {
  CompletionQueue cq(*substrate_, client_, channel_);
  // A bulk payload — the path's target case. (Below ~16 bytes the
  // descriptor wire bytes would cost more than the payload they replace.)
  const Bytes bulk(2048, 0xB7);
  ASSERT_TRUE(substrate_->region_write(client_, region_, 0, bulk).ok());
  auto desc = substrate_->make_descriptor(client_, region_, 0, bulk.size());
  ASSERT_TRUE(desc.ok());
  const SubmissionId id = *cq.submit_sg(to_bytes("hdr|"), {*desc});
  EXPECT_EQ(cq.submit_sg(to_bytes("x"), {}).error(),
            Errc::invalid_argument);  // SG without segments is a misuse
  Bytes expected = to_bytes("got:hdr|");
  expected.insert(expected.end(), bulk.begin(), bulk.end());
  EXPECT_EQ(ring_for(cq, id).payload, expected);
  EXPECT_EQ(cq.metrics().zero_copy_bytes, bulk.size());
  // The descriptor crossed, not the payload: the batched crossing is
  // cheaper than the payload-copying sync equivalent it replaced.
  EXPECT_LT(cq.metrics().crossing_cycles, cq.metrics().sync_equivalent_cycles);
}

TEST_F(ZeroCopyBatchTest, SubmitStagedReturnsSlotAtCompletion) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  CompletionQueue cq(*substrate_, client_, channel_);
  const SubmissionId id =
      *cq.submit_staged(pool, to_bytes("h:"), to_bytes("staged"));
  EXPECT_EQ(pool.slots_free(), 3u);  // slot leased while in flight
  ASSERT_TRUE(cq.doorbell().ok());
  // By completion time the handler has consumed the bytes in place, so the
  // slot is already back in the pool.
  EXPECT_EQ(pool.slots_free(), 4u);
  EXPECT_EQ(to_string(ring_for(cq, id).payload), "got:h:staged");

  // The pool sustains repeated bursts without leaking slots.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(cq.submit_staged(pool, to_bytes("r:"), to_bytes("p")).ok());
    EXPECT_EQ(pool.slots_free(), 0u);
    EXPECT_EQ(cq.submit_staged(pool, to_bytes("r:"), to_bytes("p")).error(),
              Errc::exhausted);  // pool empty = backpressure, fail closed
    auto events = cq.reap();
    ASSERT_TRUE(events.ok());
    EXPECT_EQ(pool.slots_free(), 4u);
    ASSERT_EQ(events->size(), 4u);
    for (const CqEvent& event : *events) EXPECT_TRUE(event.ok());
  }
}

TEST_F(ZeroCopyBatchTest, MixedBatchCompletesInlineAndSgEntries) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  CompletionQueue cq(*substrate_, client_, channel_);
  const SubmissionId inline_id = *cq.submit(to_bytes("plain"));
  const SubmissionId sg_id =
      *cq.submit_staged(pool, to_bytes("sg:"), to_bytes("body"));
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(handler_runs_, 2);  // one crossing, both delivered
  EXPECT_EQ(cq.metrics().batches, 1u);
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].id, inline_id);
  EXPECT_EQ(to_string((*events)[0].payload), "got:plain");
  EXPECT_EQ((*events)[1].id, sg_id);
  EXPECT_EQ(to_string((*events)[1].payload), "got:sg:body");
}

TEST_F(ZeroCopyBatchTest, EpochFenceReleasesStagedSlots) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  CompletionQueue cq(*substrate_, client_, channel_);
  ASSERT_TRUE(cq.submit_staged(pool, to_bytes("h"), to_bytes("x")).ok());
  ASSERT_TRUE(cq.submit_staged(pool, to_bytes("h"), to_bytes("y")).ok());
  EXPECT_EQ(pool.slots_free(), 2u);
  ASSERT_TRUE(substrate_->bump_channel_epoch(channel_).ok());
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  for (const CqEvent& event : *events)
    EXPECT_EQ(event.status, Errc::stale_epoch);
  EXPECT_EQ(pool.slots_free(), 4u);  // fenced completions still free slots
  EXPECT_EQ(cq.metrics().in_flight(), 0u);
}

TEST_F(ZeroCopyBatchTest, CancelledStagedSubmissionFreesItsSlot) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  CompletionQueue cq(*substrate_, client_, channel_);
  const SubmissionId drop =
      *cq.submit_staged(pool, to_bytes("h"), to_bytes("x"));
  ASSERT_TRUE(cq.cancel(drop).ok());
  EXPECT_EQ(ring_for(cq, drop).status, Errc::cancelled);
  EXPECT_EQ(handler_runs_, 0);
  EXPECT_EQ(pool.slots_free(), 4u);
}

TEST_F(ZeroCopyBatchTest, RevokedRegionFailsStagingClosed) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  ASSERT_TRUE(substrate_->revoke_region(region_).ok());
  auto slot = pool.acquire();
  ASSERT_TRUE(slot.ok());  // the free list is local; the substrate decides
  EXPECT_EQ(pool.stage(*slot, to_bytes("x")).error(), Errc::stale_epoch);
}

TEST_F(ZeroCopyBatchTest, RegionPoolIgnoresDoubleRelease) {
  RegionPool pool(*substrate_, client_, region_, 4096, 1024);
  auto a = pool.acquire();
  ASSERT_TRUE(a.ok());
  pool.release(*a);
  pool.release(*a);  // stale second release must not mint a duplicate slot
  EXPECT_EQ(pool.slots_free(), 4u);
  auto x = pool.acquire();
  auto y = pool.acquire();
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_NE(x->offset, y->offset);
}

// ---------------------------------------------------------------------------
// RegionPool sharding (FIG13): per-shard arenas, cache-line-strided slots

TEST(RegionPoolSharded, PerShardArenasWithCacheLineStride) {
  auto machine = test::make_smp_machine(4, "pool-smp");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto client = *sub->create_domain(tc_spec("client"));
  const auto server = *sub->create_domain(tc_spec("server"));
  const auto region = *sub->create_region(client, server, 1 << 16);
  ASSERT_TRUE(sub->map_region(client, region).ok());
  ASSERT_TRUE(sub->map_region(server, region).ok());

  // 100-byte slots on a multi-core machine pad to the cache-line stride:
  // two slots (and two shards' free-list heads) never share a line.
  RegionPool pool(*sub, client, region, 1 << 16, 100, 4);
  EXPECT_EQ(pool.shard_count(), 4u);
  EXPECT_EQ(pool.slot_bytes(), 100u);
  const std::size_t line = machine->costs().cache_line_bytes;
  EXPECT_EQ(pool.slot_stride() % line, 0u);
  EXPECT_GE(pool.slot_stride(), 100u);
  EXPECT_LT(pool.slot_stride(), 100u + line);
  ASSERT_GT(pool.slots_total(), 0u);
  EXPECT_EQ(pool.slots_total() % 4, 0u);  // symmetric arenas

  // Arena bases are one whole span apart; the first lease from each shard
  // is that shard's base, stride-aligned.
  const std::size_t per_shard = pool.slots_total() / 4;
  const std::uint64_t span = per_shard * pool.slot_stride();
  for (std::size_t s = 0; s < 4; ++s) {
    auto slot = pool.acquire(s);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->offset, s * span);
    EXPECT_EQ(slot->offset % pool.slot_stride(), 0u);
    pool.release(*slot);
  }
}

TEST(RegionPoolSharded, StrictShardAcquireAndOwnerRouting) {
  auto machine = test::make_smp_machine(2, "pool-strict");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto client = *sub->create_domain(tc_spec("client"));
  const auto server = *sub->create_domain(tc_spec("server"));
  const auto region = *sub->create_region(client, server, 4096);
  ASSERT_TRUE(sub->map_region(client, region).ok());
  ASSERT_TRUE(sub->map_region(server, region).ok());

  RegionPool pool(*sub, client, region, 4096, 256, 2);
  const std::size_t per_shard = pool.slots_total() / 2;
  ASSERT_GT(per_shard, 0u);

  // acquire(shard) never borrows from another arena: draining shard 0
  // exhausts it even though shard 1 is untouched.
  std::vector<RegionPool::Slot> held;
  for (std::size_t i = 0; i < per_shard; ++i) {
    auto slot = pool.acquire(0);
    ASSERT_TRUE(slot.ok());
    held.push_back(*slot);
  }
  EXPECT_EQ(pool.acquire(0).error(), Errc::exhausted);
  EXPECT_EQ(pool.slots_free(0), 0u);
  EXPECT_EQ(pool.slots_free(1), per_shard);
  EXPECT_EQ(pool.acquire(2).error(), Errc::invalid_argument);

  // The shard-blind acquire() still finds shard 1's slots (pre-FIG13
  // behaviour for unsharded callers).
  auto spill = pool.acquire();
  ASSERT_TRUE(spill.ok());
  EXPECT_GE(spill->offset, per_shard * pool.slot_stride());
  pool.release(*spill);

  // release() routes by offset to the owning arena, not round-robin.
  pool.release(held.back());
  EXPECT_EQ(pool.slots_free(0), 1u);
  EXPECT_EQ(pool.slots_free(1), per_shard);
  for (std::size_t i = 0; i + 1 < held.size(); ++i) pool.release(held[i]);
  EXPECT_EQ(pool.slots_free(), pool.slots_total());
}

TEST(RegionPoolSharded, SingleCoreMachineKeepsDenseLayout) {
  // N=1 bit-exactness: without a live contention model there is nothing to
  // pad against, so offsets are dense — byte for byte the pre-FIG13 layout,
  // even when the pool itself is sharded.
  auto machine = test::make_machine("pool-dense");
  auto sub = *test::shared_registry().create("microkernel", *machine);
  const auto client = *sub->create_domain(tc_spec("client"));
  const auto server = *sub->create_domain(tc_spec("server"));
  const auto region = *sub->create_region(client, server, 4096);
  ASSERT_TRUE(sub->map_region(client, region).ok());
  ASSERT_TRUE(sub->map_region(server, region).ok());

  RegionPool pool(*sub, client, region, 4096, 100, 2);
  EXPECT_EQ(pool.slot_stride(), 100u);  // no cache-line padding
  EXPECT_EQ(pool.shard_count(), 2u);
  auto first = pool.acquire(0);
  auto second = pool.acquire(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->offset - first->offset, 100u);

  // Staging through a shard-1 slot still goes through the monitor and
  // mints a descriptor for exactly the staged bytes.
  auto slot = pool.acquire(1);
  ASSERT_TRUE(slot.ok());
  auto desc = pool.stage(*slot, to_bytes("sharded-payload"));
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->offset, slot->offset);
  EXPECT_EQ(desc->length, std::string("sharded-payload").size());
}

// ---------------------------------------------------------------------------
// AsyncRemoteProxy / AsyncRemoteDispatcher

class AsyncRemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<net::SecureChannelEndpoint>(
        net::Role::initiator, to_bytes("async-i"), std::nullopt, std::nullopt);
    server_ = std::make_unique<net::SecureChannelEndpoint>(
        net::Role::responder, to_bytes("async-r"), std::nullopt, std::nullopt);
    auto msg1 = client_->start();
    ASSERT_TRUE(msg1.ok());
    auto msg2 = server_->handle_msg1(*msg1);
    ASSERT_TRUE(msg2.ok());
    auto msg3 = client_->handle_msg2(*msg2);
    ASSERT_TRUE(msg3.ok());
    ASSERT_TRUE(server_->handle_msg3(*msg3).ok());

    dispatcher_ = std::make_unique<AsyncRemoteDispatcher>(*server_);
    ASSERT_TRUE(dispatcher_
                    ->register_method("echo",
                                      [this](BytesView request)
                                          -> Result<Bytes> {
                                        ++server_calls_;
                                        return Bytes(request.begin(),
                                                     request.end());
                                      })
                    .ok());
    ASSERT_TRUE(dispatcher_
                    ->register_method("refuse",
                                      [](BytesView) -> Result<Bytes> {
                                        return Errc::access_denied;
                                      })
                    .ok());
  }

  AsyncRemoteProxy make_proxy(AsyncProxyConfig config = {}) {
    return AsyncRemoteProxy(
        *client_,
        [this](const std::vector<Bytes>& records)
            -> Result<std::vector<Bytes>> {
          ++bursts_;
          return dispatcher_->handle_burst(records);
        },
        config);
  }

  /// A proxy whose transport hands the burst to the dispatcher and then
  /// lets `mangle` tamper with the reply records.
  AsyncRemoteProxy mangled_proxy(
      std::function<void(std::vector<Bytes>&)> mangle) {
    return AsyncRemoteProxy(
        *client_,
        [this, mangle](const std::vector<Bytes>& records)
            -> Result<std::vector<Bytes>> {
          ++bursts_;
          auto replies = dispatcher_->handle_burst(records);
          if (replies) mangle(*replies);
          return replies;
        });
  }

  /// Drain every completed event into an id -> event map.
  static std::map<RequestId, CqEvent> by_id(AsyncRemoteProxy& proxy) {
    std::map<RequestId, CqEvent> out;
    for (CqEvent& event : proxy.reap()) {
      const RequestId id = static_cast<RequestId>(event.id);
      out[id] = std::move(event);
    }
    return out;
  }

  std::unique_ptr<net::SecureChannelEndpoint> client_;
  std::unique_ptr<net::SecureChannelEndpoint> server_;
  std::unique_ptr<AsyncRemoteDispatcher> dispatcher_;
  int server_calls_ = 0;
  int bursts_ = 0;
};

TEST_F(AsyncRemoteTest, PipelinedBurstMatchesRepliesById) {
  AsyncRemoteProxy proxy = make_proxy();
  std::vector<RequestId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(*proxy.submit("echo", to_bytes("r" + std::to_string(i))));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(bursts_, 1);  // five invocations, one transport exchange
  EXPECT_EQ(server_calls_, 5);
  auto events = by_id(proxy);
  ASSERT_EQ(events.size(), 5u);
  for (int i = 4; i >= 0; --i) {
    const CqEvent& event = events.at(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(event.ok());
    EXPECT_EQ(to_string(event.payload), "r" + std::to_string(i));
  }
}

TEST_F(AsyncRemoteTest, RemoteErrorsStayPerRequest) {
  AsyncRemoteProxy proxy = make_proxy();
  const RequestId good = *proxy.submit("echo", to_bytes("fine"));
  const RequestId bad = *proxy.submit("refuse", to_bytes("x"));
  const RequestId missing = *proxy.submit("no-such-method", {});
  ASSERT_TRUE(proxy.flush().ok());
  auto events = by_id(proxy);
  EXPECT_EQ(to_string(events.at(good).payload), "fine");
  EXPECT_EQ(events.at(bad).status, Errc::access_denied);
  EXPECT_EQ(events.at(missing).status, Errc::invalid_argument);
}

TEST_F(AsyncRemoteTest, CancelBeforeFlushLeavesChannelHealthy) {
  AsyncRemoteProxy proxy = make_proxy();
  const RequestId keep = *proxy.submit("echo", to_bytes("keep"));
  const RequestId drop = *proxy.submit("echo", to_bytes("drop"));
  ASSERT_TRUE(proxy.cancel(drop).ok());
  ASSERT_TRUE(proxy.flush().ok());
  auto events = by_id(proxy);
  EXPECT_EQ(events.at(drop).status, Errc::cancelled);
  EXPECT_EQ(to_string(events.at(keep).payload), "keep");
  EXPECT_EQ(server_calls_, 1);
  // Cancellation left no hole in the record sequence: further traffic works.
  const RequestId after = *proxy.submit("echo", to_bytes("after"));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(to_string(by_id(proxy).at(after).payload), "after");
}

TEST_F(AsyncRemoteTest, DepthBoundRejectsExcessSubmissions) {
  AsyncRemoteProxy proxy = make_proxy({.depth = 2});
  ASSERT_TRUE(proxy.submit("echo", to_bytes("a")).ok());
  ASSERT_TRUE(proxy.submit("echo", to_bytes("b")).ok());
  EXPECT_EQ(proxy.submit("echo", to_bytes("c")).error(), Errc::exhausted);
  EXPECT_EQ(proxy.metrics().rejected, 1u);
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_TRUE(proxy.submit("echo", to_bytes("c")).ok());
}

TEST_F(AsyncRemoteTest, TransportFailureCompletesEveryInFlightRequest) {
  AsyncRemoteProxy proxy(
      *client_,
      [](const std::vector<Bytes>&) -> Result<std::vector<Bytes>> {
        return Errc::io_error;  // the network ate the burst
      });
  const RequestId a = *proxy.submit("echo", to_bytes("a"));
  const RequestId b = *proxy.submit("echo", to_bytes("b"));
  ASSERT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.pending(), 0u);
  auto events = by_id(proxy);
  EXPECT_EQ(events.at(a).status, Errc::io_error);
  EXPECT_EQ(events.at(b).status, Errc::io_error);
}

TEST_F(AsyncRemoteTest, TamperedBurstRecordRefusedByDispatcher) {
  AsyncRemoteProxy proxy(
      *client_,
      [this](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        std::vector<Bytes> tampered = records;
        tampered.back()[tampered.back().size() - 1] ^= 0x01;
        return dispatcher_->handle_burst(tampered);
      });
  const RequestId first = *proxy.submit("echo", to_bytes("x"));
  const RequestId last = *proxy.submit("echo", to_bytes("y"));
  // The dispatcher refuses the whole burst (its sequence window broke);
  // the proxy surfaces that as each request's completion.
  ASSERT_TRUE(proxy.flush().ok());
  auto events = by_id(proxy);
  EXPECT_EQ(events.at(first).status, Errc::verification_failed);
  EXPECT_EQ(events.at(last).status, Errc::verification_failed);
}

TEST_F(AsyncRemoteTest, TamperedReplyRecordCompletesEveryCallOnce) {
  AsyncRemoteProxy proxy = mangled_proxy(
      [](std::vector<Bytes>& replies) { replies.front().back() ^= 0x01; });
  std::vector<RequestId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(*proxy.submit("echo", to_bytes("r" + std::to_string(i))));
  EXPECT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.pending(), 0u);
  EXPECT_TRUE(proxy.flush().ok());  // nothing left to seal again
  EXPECT_EQ(server_calls_, 3);
  const InvocationCounters m = proxy.metrics();
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.submitted, m.completed + m.cancelled);
  // The first reply does not open, so the receive sequence is broken and
  // no reply of the burst can be trusted: every call fails, none is lost.
  auto events = by_id(proxy);
  ASSERT_EQ(events.size(), 3u);
  for (const RequestId id : ids)
    EXPECT_EQ(events.at(id).status, Errc::verification_failed);
}

TEST_F(AsyncRemoteTest, ShortReplyBurstNeverResendsSealedCalls) {
  AsyncRemoteProxy proxy = mangled_proxy(
      [](std::vector<Bytes>& replies) { replies.pop_back(); });
  std::vector<RequestId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(*proxy.submit("echo", to_bytes("r" + std::to_string(i))));
  EXPECT_TRUE(proxy.flush().ok());
  EXPECT_EQ(proxy.pending(), 0u);
  // Nothing is left to seal again: the peer must not run any call twice.
  EXPECT_TRUE(proxy.flush().ok());
  EXPECT_EQ(server_calls_, 3);
  const InvocationCounters m = proxy.metrics();
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.submitted, m.completed + m.cancelled);
  auto events = by_id(proxy);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(to_string(events.at(ids[0]).payload), "r0");
  EXPECT_EQ(to_string(events.at(ids[1]).payload), "r1");
  EXPECT_EQ(events.at(ids[2]).status, Errc::io_error);  // its reply is gone
}

TEST_F(AsyncRemoteTest, ForeignAndRepeatedReplyIdsAreDropped) {
  // The peer answers the one call, then seals two more authentic replies:
  // a repeat of that call's id and an id never sent. Both open, neither
  // completes anything.
  const auto reply_for = [](RequestId id, const std::string& body) {
    Bytes plain = {static_cast<std::uint8_t>(id >> 24),
                   static_cast<std::uint8_t>(id >> 16),
                   static_cast<std::uint8_t>(id >> 8),
                   static_cast<std::uint8_t>(id), 0 /* Errc::ok */};
    const Bytes payload = to_bytes(body);
    plain.insert(plain.end(), payload.begin(), payload.end());
    return plain;
  };
  AsyncRemoteProxy proxy =
      mangled_proxy([this, &reply_for](std::vector<Bytes>& replies) {
        replies.push_back(*server_->seal_record(reply_for(1, "repeat")));
        replies.push_back(*server_->seal_record(reply_for(999, "foreign")));
      });
  const RequestId a = *proxy.submit("echo", to_bytes("a"));
  ASSERT_EQ(a, 1u);
  ASSERT_TRUE(proxy.flush().ok());
  auto events = by_id(proxy);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(to_string(events.at(a).payload), "a");
  EXPECT_EQ(proxy.metrics().completed, 1u);
}

TEST_F(AsyncRemoteTest, ReapDrainsCompletedEventsInOrder) {
  AsyncRemoteProxy proxy = make_proxy();
  std::vector<RequestId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(*proxy.submit("echo", to_bytes("r" + std::to_string(i))));
  ASSERT_TRUE(proxy.flush().ok());
  std::vector<CqEvent> first = proxy.reap(3);
  ASSERT_EQ(first.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].id, ids[i]);  // oldest request id first
    ASSERT_TRUE(first[i].ok());
    EXPECT_EQ(to_string(first[i].payload), "r" + std::to_string(i));
  }
  std::size_t rest = proxy.for_each_completion([&](CqEvent& event) {
    EXPECT_EQ(event.id, ids[3]);
  });
  EXPECT_EQ(rest, 1u);
  EXPECT_TRUE(proxy.reap().empty());
}

TEST_F(AsyncRemoteTest, AdaptiveAutoFlushRingsAtDepthTarget) {
  AsyncProxyConfig config;
  config.adaptive.min_batch = 2;
  config.adaptive.max_batch = 8;
  config.adaptive.adaptive = true;
  AsyncRemoteProxy proxy = make_proxy(config);
  EXPECT_EQ(proxy.batch_depth(), 2u);
  ASSERT_TRUE(proxy.submit("echo", to_bytes("a")).ok());
  EXPECT_EQ(bursts_, 0);  // below target: nothing on the wire yet
  ASSERT_TRUE(proxy.submit("echo", to_bytes("b")).ok());
  EXPECT_EQ(bursts_, 1);  // target reached: implicit flush
  EXPECT_EQ(proxy.pending(), 0u);
  EXPECT_EQ(proxy.reap().size(), 2u);
  // The saturated no-latency window grew the target (cold start).
  EXPECT_EQ(proxy.batch_depth(), 4u);
  EXPECT_EQ(proxy.metrics().doorbells, 1u);
}

// ---------------------------------------------------------------------------
// The batched path behaves identically on every capable substrate — same
// conformance posture as substrate_conformance_test.cpp.

class BatchedPathConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    machine_ = test::make_machine("batched-" + GetParam());
    substrate_ = *test::shared_registry().create(GetParam(), *machine_);
    client_ = *substrate_->create_domain(tc_spec("client"));
    const bool use_legacy = has_feature(substrate_->info().features,
                                        substrate::Feature::legacy_hosting);
    server_ = *substrate_->create_domain(use_legacy
                                             ? test::legacy_spec("server")
                                             : tc_spec("server"));
    channel_ = *substrate_->create_channel(client_, server_);
    ASSERT_TRUE(substrate_
                    ->set_handler(server_,
                                  [](const substrate::Invocation& inv)
                                      -> Result<Bytes> {
                                    Bytes reply(inv.data.begin(),
                                                inv.data.end());
                                    reply.push_back('!');
                                    return reply;
                                  })
                    .ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> substrate_;
  substrate::DomainId client_ = 0, server_ = 0;
  substrate::ChannelId channel_ = 0;
};

TEST_P(BatchedPathConformance, BatchRoundTrip) {
  CompletionQueue cq(*substrate_, client_, channel_);
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(*cq.submit(to_bytes("m" + std::to_string(i))));
  ASSERT_TRUE(cq.doorbell().ok());
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*events)[i].id, ids[i]);
    ASSERT_TRUE((*events)[i].ok()) << GetParam();
    EXPECT_EQ(to_string((*events)[i].payload),
              "m" + std::to_string(i) + "!");
  }
}

TEST_P(BatchedPathConformance, BatchingAmortizesTheCrossing) {
  const Cycles before_sync = substrate_->machine().now();
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("ping")).ok());
  const Cycles sync_cost = substrate_->machine().now() - before_sync;

  CompletionQueue cq(*substrate_, client_, channel_);
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(cq.submit(to_bytes("ping")).ok());
  const Cycles before_batch = substrate_->machine().now();
  ASSERT_TRUE(cq.doorbell().ok());
  const Cycles batch_cost = substrate_->machine().now() - before_batch;

  ASSERT_GT(batch_cost, 0u);
  // The acceptance bar: batch-32 must be at least 5x cheaper per call.
  EXPECT_GE(sync_cost / batch_cost, 5u)
      << GetParam() << ": sync=" << sync_cost << " batched=" << batch_cost;
}

TEST_P(BatchedPathConformance, LosslessUnderCancelAndDeadline) {
  // Move the simulated clock past cycle 1 so an absolute deadline of 1 is
  // expired on every substrate regardless of its setup costs.
  ASSERT_TRUE(substrate_->call(client_, channel_, to_bytes("warm")).ok());
  ASSERT_GT(substrate_->machine().now(), 1u);
  CompletionQueueConfig cfg;
  cfg.depth = 8;
  cfg.adaptive.max_batch = 8;
  CompletionQueue cq(*substrate_, client_, channel_, cfg);
  std::vector<SubmissionId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(*cq.submit(to_bytes("x"), {.deadline = (i == 5)
                                                 ? Cycles{1}
                                                 : Cycles{0}}));
  ASSERT_TRUE(cq.cancel(ids[0]).ok());
  auto events = cq.reap();
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 6u);
  const InvocationCounters m = cq.metrics();
  EXPECT_EQ(m.submitted, m.completed + m.cancelled + m.timed_out);
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.timed_out, 1u);
  EXPECT_EQ(m.in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBatchedSubstrates, BatchedPathConformance,
                         ::testing::Values("microkernel", "trustzone", "sgx",
                                           "tpm", "ftpm", "sep", "cheri",
                                           "noc"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lateral::runtime
