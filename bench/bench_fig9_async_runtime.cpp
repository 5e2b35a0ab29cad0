// FIG9 — Amortized boundary crossing via the async batching runtime.
//
// The paper's horizontal paradigm multiplies boundary crossings; §II-B
// measures their cost and §III-A asks the unified interface to keep
// application code independent of it. lateral::runtime attacks the cost
// itself: an io_uring-style submission/completion pair over a substrate
// channel crosses the boundary once per batch instead of once per call.
//
// This benchmark drives the identical workload through the synchronous
// per-call path and through a CompletionQueue at several fixed batch sizes,
// and an adaptive CompletionQueue against a fixed batch-32 one, on every
// substrate, and reports simulated cycles per call. Acceptance bar: at
// batch 32 the batched path is at least 5x cheaper per call on the
// substrates with meaningful crossing costs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "util/table.h"

using namespace lateral;
using namespace lateral::bench;

namespace {

struct Rig {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<substrate::IsolationSubstrate> substrate;
  substrate::DomainId client = 0;
  substrate::ChannelId channel = 0;
};

Rig make_rig(const std::string& substrate_name) {
  Rig rig;
  rig.machine = make_machine("fig9-" + substrate_name);
  rig.substrate = *registry().create(substrate_name, *rig.machine);
  auto server = *rig.substrate->create_domain(tc_spec("server"));
  const bool legacy_ok = has_feature(rig.substrate->info().features,
                                     substrate::Feature::legacy_hosting);
  rig.client = *rig.substrate->create_domain(
      legacy_ok ? legacy_spec("client") : tc_spec("client"));
  rig.channel = *rig.substrate->create_channel(rig.client, server,
                                               {.max_message_bytes = 1 << 16});
  (void)rig.substrate->set_handler(
      server, [](const substrate::Invocation& inv) -> Result<Bytes> {
        return Bytes(inv.data.begin(), inv.data.end());  // echo
      });
  return rig;
}

/// Cycles per call on the synchronous path.
Cycles measure_sync(const std::string& substrate_name, std::size_t payload) {
  Rig rig = make_rig(substrate_name);
  const Bytes data(payload, 0x5A);
  (void)rig.substrate->call(rig.client, rig.channel, data);  // warm-up
  const Cycles before = rig.machine->now();
  const int kCalls = 64;
  for (int i = 0; i < kCalls; ++i)
    (void)rig.substrate->call(rig.client, rig.channel, data);
  return (rig.machine->now() - before) / kCalls;
}

/// Cycles per call through a CompletionQueue rung once per `batch_size`
/// submissions. When a
/// hub is supplied, per-invocation submit->complete latencies land in its
/// "fig9" counters (p50/p99 below come from there).
Cycles measure_batched(const std::string& substrate_name, std::size_t payload,
                       std::size_t batch_size,
                       runtime::MetricsHub* hub = nullptr) {
  Rig rig = make_rig(substrate_name);
  const Bytes data(payload, 0x5A);
  (void)rig.substrate->call(rig.client, rig.channel, data);  // warm-up

  runtime::CompletionQueueConfig config;
  config.hub = hub;
  config.label = "fig9";
  runtime::CompletionQueue cq(*rig.substrate, rig.client, rig.channel, config);
  const Cycles before = rig.machine->now();
  const int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < batch_size; ++i) (void)cq.submit(data);
    (void)cq.doorbell();
    (void)cq.reap();
  }
  return (rig.machine->now() - before) /
         (kRounds * static_cast<Cycles>(batch_size));
}

/// One CompletionQueue run over the bursty-plus-sparse workload.
struct CqRun {
  Cycles cycles_per_call = 0;  // work cycles only (idle gaps excluded)
  Cycles p50 = 0;              // submit->complete, log2-bucket upper bounds
  Cycles p99 = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t depth = 0;  // controller's final depth target
};

/// Drive the mixed workload through a CompletionQueue: per round, a burst
/// of back-to-back arrivals followed by a sparse phase of one arrival per
/// `tick` (tick = this substrate's measured sync per-call cost, so "sparse"
/// means the same thing on a NoC and a TPM). Fixed mode pins the
/// controller at depth 32 and rings on occupancy only — sparse stragglers
/// sit until the round-end doorbell. Adaptive mode lets the controller
/// deepen through the burst (tail-bounded) and uses a flush_age bound to
/// ring for stragglers.
CqRun measure_cq(const std::string& substrate_name, std::size_t payload,
                 bool adaptive, Cycles tick) {
  Rig rig = make_rig(substrate_name);
  const Bytes data(payload, 0x5A);
  (void)rig.substrate->call(rig.client, rig.channel, data);  // warm-up

  runtime::MetricsHub hub;
  runtime::CompletionQueueConfig cfg;
  cfg.hub = &hub;
  cfg.label = adaptive ? "fig9.adaptive" : "fig9.fixed32";
  if (adaptive) {
    cfg.adaptive = {.min_batch = 4, .max_batch = 256, .initial = 0,
                    .tail_factor = 16, .flush_age = 3 * tick,
                    .adaptive = true};
  } else {
    cfg.adaptive = {.min_batch = 32, .max_batch = 32, .initial = 32,
                    .tail_factor = 16, .flush_age = 0, .adaptive = false};
  }
  runtime::CompletionQueue cq(*rig.substrate, rig.client, rig.channel, cfg);

  constexpr int kRounds = 6;
  constexpr int kBurst = 1024;
  constexpr int kSparse = 24;
  const Cycles before = rig.machine->now();
  Cycles idle = 0;
  std::uint64_t calls = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBurst; ++i) {
      (void)cq.submit(data);
      ++calls;
      (void)cq.maybe_doorbell();
    }
    (void)cq.doorbell();
    (void)cq.for_each_completion([](runtime::CqEvent&) {});
    for (int i = 0; i < kSparse; ++i) {
      rig.machine->advance(tick);  // the line goes quiet between arrivals
      idle += tick;
      (void)cq.submit(data);
      ++calls;
      (void)cq.maybe_doorbell();
    }
    (void)cq.doorbell();
    (void)cq.for_each_completion([](runtime::CqEvent&) {});
  }

  const auto counters = hub.counters(cfg.label).snapshot();
  CqRun run;
  run.cycles_per_call = (rig.machine->now() - before - idle) / calls;
  run.p50 = counters.latency_percentile(0.50);
  run.p99 = counters.latency_percentile(0.99);
  run.doorbells = counters.doorbells;
  run.depth = counters.adaptive_depth;
  return run;
}

void run_report() {
  std::printf("== FIG9: amortized boundary crossing (cycles per call) ==\n");
  std::printf("(16 B echo; sync = one crossing per call, batch-N = one\n");
  std::printf(" crossing per N submissions through runtime::CompletionQueue)\n\n");

  const std::size_t kPayload = 16;
  util::Table table({"substrate", "sync", "batch 8", "batch 32", "batch 128",
                     "sync / batch-32", "p50@32", "p99@32"});
  for (const char* name : {"noc", "cheri", "microkernel", "trustzone", "ftpm",
                           "sgx", "sep", "tpm"}) {
    const Cycles sync = measure_sync(name, kPayload);
    const Cycles b8 = measure_batched(name, kPayload, 8);
    runtime::MetricsHub hub;
    const Cycles b32 = measure_batched(name, kPayload, 32, &hub);
    const Cycles b128 = measure_batched(name, kPayload, 128);
    const auto counters = hub.counters("fig9").snapshot();
    table.add_row({name, util::fmt_cycles(sync), util::fmt_cycles(b8),
                   util::fmt_cycles(b32), util::fmt_cycles(b128),
                   util::fmt_ratio(static_cast<double>(sync) /
                                   static_cast<double>(b32 ? b32 : 1)),
                   util::fmt_cycles(counters.latency_percentile(0.50)),
                   util::fmt_cycles(counters.latency_percentile(0.99))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("p50/p99: per-invocation submit->complete latency at batch 32\n");
  std::printf("(log2-bucket upper bounds) — amortization trades per-call\n");
  std::printf("cost for queueing delay, and the tail shows the price.\n");
  std::printf("expected shape: the heavier the substrate's fixed crossing\n");
  std::printf("cost, the more batching pays: per-call cost converges to the\n");
  std::printf("per-byte copy cost as the fixed crossing amortizes away.\n\n");

  std::printf("== FIG9b: adaptive CompletionQueue vs fixed batch-32 ==\n");
  std::printf("(bursty-plus-sparse workload: 1024 back-to-back arrivals,\n");
  std::printf(" then 24 arrivals one sync-call-cost apart, x6 rounds.\n");
  std::printf(" fixed-32 rings on occupancy only; adaptive deepens through\n");
  std::printf(" the burst and age-flushes the stragglers)\n\n");
  util::Table cq_table({"substrate", "fixed-32 c/call", "adaptive c/call",
                        "adaptive/fixed", "p99 fixed", "p99 adaptive",
                        "doorbells f/a"});
  for (const char* name : {"noc", "cheri", "microkernel", "trustzone", "ftpm",
                           "sgx", "sep", "tpm"}) {
    const Cycles tick = measure_sync(name, kPayload);
    const CqRun fixed = measure_cq(name, kPayload, /*adaptive=*/false, tick);
    const CqRun adaptive = measure_cq(name, kPayload, /*adaptive=*/true, tick);
    cq_table.add_row(
        {name, util::fmt_cycles(fixed.cycles_per_call),
         util::fmt_cycles(adaptive.cycles_per_call),
         util::fmt_ratio(static_cast<double>(fixed.cycles_per_call) /
                         static_cast<double>(adaptive.cycles_per_call
                                                 ? adaptive.cycles_per_call
                                                 : 1)),
         util::fmt_cycles(fixed.p99), util::fmt_cycles(adaptive.p99),
         std::to_string(fixed.doorbells) + "/" +
             std::to_string(adaptive.doorbells)});
  }
  std::printf("%s\n", cq_table.render().c_str());
  std::printf("the claim: against the same mixed offered load, the adaptive\n");
  std::printf("controller both raises throughput (fewer, deeper crossings\n");
  std::printf("through the burst) and cuts the p99 (small age-bounded\n");
  std::printf("flushes once the line goes quiet, where fixed-32 leaves\n");
  std::printf("stragglers parked until the next occupancy trigger).\n\n");
}

void BM_DoorbellWallClock(benchmark::State& state) {
  // Wall-clock cost of the batching machinery itself (not modeled cycles).
  Rig rig = make_rig("microkernel");
  runtime::CompletionQueue cq(*rig.substrate, rig.client, rig.channel);
  const Bytes data(16, 1);
  for (auto _ : state) {
    for (int i = 0; i < state.range(0); ++i) (void)cq.submit(data);
    benchmark::DoNotOptimize(cq.doorbell());
    benchmark::DoNotOptimize(cq.reap());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DoorbellWallClock)->Arg(8)->Arg(32)->Arg(128);

void register_json_benchmarks() {
  // Machine-readable mirror of the report table: one benchmark per
  // substrate, counters carrying the simulated cycles per call. Wall-clock
  // time of these is meaningless; the counters are the data.
  for (const char* name : {"noc", "cheri", "microkernel", "trustzone", "ftpm",
                           "sgx", "sep", "tpm"}) {
    benchmark::RegisterBenchmark(
        ("fig9/" + std::string(name)).c_str(),
        [name](benchmark::State& state) {
          const Cycles sync = measure_sync(name, 16);
          const Cycles b8 = measure_batched(name, 16, 8);
          runtime::MetricsHub hub;
          const Cycles b32 = measure_batched(name, 16, 32, &hub);
          const Cycles b128 = measure_batched(name, 16, 128);
          const auto counters = hub.counters("fig9").snapshot();
          for (auto _ : state) benchmark::DoNotOptimize(sync);
          state.counters["sync_cycles_per_call"] = static_cast<double>(sync);
          state.counters["batch8_cycles_per_call"] = static_cast<double>(b8);
          state.counters["batch32_cycles_per_call"] = static_cast<double>(b32);
          state.counters["batch128_cycles_per_call"] =
              static_cast<double>(b128);
          state.counters["sync_over_batch32"] =
              static_cast<double>(sync) / static_cast<double>(b32 ? b32 : 1);
          state.counters["latency_p50_batch32"] =
              static_cast<double>(counters.latency_percentile(0.50));
          state.counters["latency_p99_batch32"] =
              static_cast<double>(counters.latency_percentile(0.99));

          // FIG9b: adaptive CompletionQueue vs fixed batch-32 on the
          // bursty-plus-sparse workload (the CI smoke asserts both deltas).
          const CqRun fixed = measure_cq(name, 16, /*adaptive=*/false, sync);
          const CqRun adaptive = measure_cq(name, 16, /*adaptive=*/true,
                                            sync);
          state.counters["fixed32_cycles_per_call"] =
              static_cast<double>(fixed.cycles_per_call);
          state.counters["adaptive_cycles_per_call"] =
              static_cast<double>(adaptive.cycles_per_call);
          state.counters["adaptive_over_fixed32"] =
              static_cast<double>(fixed.cycles_per_call) /
              static_cast<double>(adaptive.cycles_per_call
                                      ? adaptive.cycles_per_call
                                      : 1);
          state.counters["latency_p50_fixed32"] =
              static_cast<double>(fixed.p50);
          state.counters["latency_p99_fixed32"] =
              static_cast<double>(fixed.p99);
          state.counters["latency_p50_adaptive"] =
              static_cast<double>(adaptive.p50);
          state.counters["latency_p99_adaptive"] =
              static_cast<double>(adaptive.p99);
          state.counters["adaptive_doorbells"] =
              static_cast<double>(adaptive.doorbells);
          state.counters["fixed32_doorbells"] =
              static_cast<double>(fixed.doorbells);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!machine_readable_output(argc, argv)) run_report();
  register_json_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
