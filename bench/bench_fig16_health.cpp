// FIG16 — What does the health plane cost?
//
// lateral::health claims to be ALWAYS-ON: a sampling cycle-profiler on the
// crossing fast path, SLO watchdogs over the MetricsHub, and a hash-chained
// audit log behind the refusal paths. An always-on plane that taxes the
// batched fast path defeats FIG9/FIG12's amortization work, so this
// benchmark drives the FIG9 workload (batch-32, 16 B echo) on every
// substrate in three modes:
//
//   baseline  — no profiler attached at all
//   disabled  — CycleProfiler attached but switched off (set_enabled(false))
//   enabled   — CycleProfiler attached and sampling (1 in 8 crossings)
//
// Acceptance bar: enabled costs at most 5% over baseline on every
// substrate, and disabled is bit-exact with baseline (the off-switch must
// charge exactly zero simulated cycles — health you pay for while not
// looking is a tax, not a plane).
//
// Two more rows quantify the rest of the plane:
//   - SLO breach detection latency: simulated cycles from the first bad
//     window to the HealthMonitor raising the breach (multi-window burn
//     rate: both the short and the long window must go bad).
//   - Audit chain verification: wall-clock cost for an operator to verify
//     a sealed 256-record segment (hash chain + quote + seal binding).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "health/audit.h"
#include "health/profiler.h"
#include "health/slo.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "util/table.h"

using namespace lateral;
using namespace lateral::bench;

namespace {

constexpr const char* kSubstrates[] = {"noc",  "cheri", "microkernel",
                                       "trustzone", "ftpm", "sgx",
                                       "sep",  "tpm"};

struct Rig {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<substrate::IsolationSubstrate> substrate;
  substrate::DomainId client = 0;
  substrate::ChannelId channel = 0;
};

Rig make_rig(const std::string& substrate_name) {
  Rig rig;
  rig.machine = make_machine("fig16-" + substrate_name);
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

enum class Mode { baseline, disabled, enabled };

/// Cycles per call on the FIG9 batch-32 path under the given profiler mode.
Cycles measure(const std::string& substrate_name, Mode mode) {
  Rig rig = make_rig(substrate_name);
  const Bytes data(16, 0x5A);
  (void)rig.substrate->call(rig.client, rig.channel, data);  // warm-up

  health::CycleProfiler profiler;
  if (mode != Mode::baseline) {
    rig.substrate->set_profiler(&profiler);
    profiler.set_enabled(mode == Mode::enabled);
  }

  const std::size_t kBatch = 32;
  runtime::CompletionQueue batch(*rig.substrate, rig.client, rig.channel);
  const Cycles before = rig.machine->now();
  const int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) (void)batch.submit(data);
    (void)batch.doorbell();
    (void)batch.reap();
  }
  return (rig.machine->now() - before) /
         (kRounds * static_cast<Cycles>(kBatch));
}

double overhead_pct(Cycles baseline, Cycles enabled) {
  if (baseline == 0) return 0.0;
  return 100.0 * static_cast<double>(enabled - baseline) /
         static_cast<double>(baseline);
}

/// Simulated cycles from SLO violation onset to the HealthMonitor raising
/// the breach (multi-window burn rate; error-rate objective).
Cycles measure_slo_detection() {
  auto machine = make_machine("fig16-slo");
  runtime::MetricsHub hub;
  health::HealthMonitor monitor(
      {.hub = &hub, .clock = machine.get(), .label = "fig16"});

  core::SloPolicy policy;
  policy.error_permille = 50;     // >5% errors is a breach
  policy.window_cycles = 10'000;  // short window
  policy.burn_windows = 4;        // long window = 40'000 cycles
  (void)monitor.watch("svc", policy, "svc");

  auto svc = hub.counters("svc");
  // Healthy warm-up: fill both windows with clean traffic.
  for (int i = 0; i < 64; ++i) {
    machine->advance(1'000);
    svc->submitted += 100;
    svc->completed += 100;
    (void)monitor.tick();
  }
  // Violation: ~9% of offered load rejected, every tick from now on.
  for (int i = 0; i < 256; ++i) {
    machine->advance(1'000);
    svc->submitted += 90;
    svc->completed += 90;
    svc->rejected += 10;
    const auto events = monitor.tick();
    for (const health::HealthEvent& event : events)
      if (event.kind == health::HealthEvent::Kind::error_rate_breach)
        return monitor.stats().mean_detect_cycles();
  }
  return 0;  // never detected: the JSON consumer treats 0 as failure
}

/// A sealed, quote-bound 256-record segment, as an operator would pull it.
/// The seal is attested by a trusted domain (on SGX only enclaves quote).
health::AuditSegment make_audit_segment(Rig& rig) {
  const auto auditor = *rig.substrate->create_domain(tc_spec("auditor"));
  health::AuditLog log(rig.machine.get());
  for (int i = 0; i < 256; ++i)
    log.append(health::AuditKind::ticket_rejected, "meter",
               Errc::ticket_replayed, "bench");
  return *log.segment(0, *rig.substrate, auditor);
}

void run_report() {
  std::printf("== FIG16: health-plane overhead on the batched fast path ==\n");
  std::printf("(FIG9 workload: batch-32, 16 B echo; cycles per call;\n");
  std::printf(" profiler samples 1 in 8 crossings when enabled)\n\n");

  util::Table table({"substrate", "baseline", "health off", "health on",
                     "overhead", "<= 5%"});
  bool all_pass = true;
  for (const char* name : kSubstrates) {
    const Cycles baseline = measure(name, Mode::baseline);
    const Cycles off = measure(name, Mode::disabled);
    const Cycles on = measure(name, Mode::enabled);
    const double pct = overhead_pct(baseline, on);
    const bool pass = pct <= 5.0 && off == baseline;
    all_pass = all_pass && pass;
    char pct_text[32];
    std::snprintf(pct_text, sizeof pct_text, "%.1f%%", pct);
    table.add_row({name, util::fmt_cycles(baseline), util::fmt_cycles(off),
                   util::fmt_cycles(on), pct_text, pass ? "PASS" : "FAIL"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("health off must equal baseline exactly (the off-switch is\n");
  std::printf("free); health on pays one profile stamp per 8 crossings,\n");
  std::printf("amortized across the batch.  overall: %s\n\n",
              all_pass ? "PASS" : "FAIL");

  const Cycles detect = measure_slo_detection();
  std::printf("SLO breach detection (error rate, 10k-cycle window, 4 burn\n");
  std::printf("windows): %llu cycles from onset to alert\n\n",
              static_cast<unsigned long long>(detect));
}

void register_json_benchmarks() {
  // Machine-readable mirror of the report table (BENCH_FIG16.json): the
  // counters are the data, the wall-clock time of these is meaningless —
  // except fig16/audit_verify, which really is wall-clock verifier cost.
  for (const char* name : kSubstrates) {
    benchmark::RegisterBenchmark(
        ("fig16/" + std::string(name)).c_str(),
        [name](benchmark::State& state) {
          const Cycles baseline = measure(name, Mode::baseline);
          const Cycles off = measure(name, Mode::disabled);
          const Cycles on = measure(name, Mode::enabled);
          for (auto _ : state) benchmark::DoNotOptimize(on);
          state.counters["baseline_cycles_per_call"] =
              static_cast<double>(baseline);
          state.counters["disabled_cycles_per_call"] =
              static_cast<double>(off);
          state.counters["enabled_cycles_per_call"] = static_cast<double>(on);
          state.counters["overhead_pct"] = overhead_pct(baseline, on);
          state.counters["zero_when_off"] = off == baseline ? 1.0 : 0.0;
          state.counters["within_budget"] =
              (overhead_pct(baseline, on) <= 5.0 && off == baseline) ? 1.0
                                                                     : 0.0;
        });
  }

  benchmark::RegisterBenchmark("fig16/slo_detection",
                               [](benchmark::State& state) {
                                 const Cycles detect = measure_slo_detection();
                                 for (auto _ : state)
                                   benchmark::DoNotOptimize(detect);
                                 state.counters["detect_cycles"] =
                                     static_cast<double>(detect);
                                 state.counters["detected"] =
                                     detect > 0 ? 1.0 : 0.0;
                               });

  benchmark::RegisterBenchmark(
      "fig16/audit_verify_256", [](benchmark::State& state) {
        // Operator-side wall-clock cost: hash-chain 256 records, check the
        // quote and the seal binding. Built once, verified per iteration.
        Rig rig = make_rig("sgx");
        const health::AuditSegment segment = make_audit_segment(rig);
        health::AuditVerifyConfig config;
        config.vendor_root = vendor().root_public_key();
        bool ok = true;
        for (auto _ : state) {
          ok = ok && health::verify_segment(segment, config).ok();
          benchmark::DoNotOptimize(ok);
        }
        state.SetItemsProcessed(state.iterations());
        state.counters["records_per_segment"] = 256;
        state.counters["verified"] = ok ? 1.0 : 0.0;
      });
}

}  // namespace

int main(int argc, char** argv) {
  if (!machine_readable_output(argc, argv)) run_report();
  register_json_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
