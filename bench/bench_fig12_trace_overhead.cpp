// FIG12 — What does observability cost?
//
// lateral::trace stamps a 16-byte context onto every crossing and records
// span events into per-domain flight recorders. A tracing layer that taxes
// the batched fast path defeats the point of PR4/PR1's amortization work,
// so this benchmark drives the FIG9 workload (batch-32, 16 B echo) on
// every substrate in three modes:
//
//   baseline  — no Tracer attached at all
//   disabled  — Tracer attached but switched off (set_enabled(false))
//   enabled   — Tracer attached, a sampled trace installed on the thread
//
// Acceptance bar: enabled costs at most 5% over baseline on every
// substrate, and disabled is indistinguishable from baseline (the
// off-switch must be free — observability you pay for while not looking
// is a tax, not a tool).
//
// With --trace_export=PATH the traced run's flight recorders are also
// serialized through TraceExporter into Chrome trace_event JSON at PATH
// (CI validates the artifact with `python3 -m json.tool`).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/completion_queue.h"
#include "trace/exporter.h"
#include "trace/trace.h"
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
  rig.machine = make_machine("fig12-" + substrate_name);
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

/// Cycles per call on the FIG9 batch-32 path under the given trace mode.
/// `sink` (optional, enabled mode) receives the Tracer so a caller can
/// export what the run recorded.
Cycles measure(const std::string& substrate_name, Mode mode,
               trace::Tracer* sink = nullptr) {
  Rig rig = make_rig(substrate_name);
  const Bytes data(16, 0x5A);
  (void)rig.substrate->call(rig.client, rig.channel, data);  // warm-up

  trace::Tracer local;
  trace::Tracer* tracer = sink ? sink : &local;
  if (mode != Mode::baseline) {
    rig.substrate->set_tracer(tracer);
    tracer->set_enabled(mode == Mode::enabled);
  }
  std::optional<trace::TraceScope> scope;
  if (mode == Mode::enabled) scope.emplace(tracer->begin_trace());

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

void run_report() {
  std::printf("== FIG12: tracing overhead on the batched fast path ==\n");
  std::printf("(FIG9 workload: batch-32, 16 B echo; cycles per call)\n\n");

  util::Table table({"substrate", "baseline", "trace off", "trace on",
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
  std::printf("trace off must equal baseline exactly (the off-switch is\n");
  std::printf("free); trace on pays one 16 B context per crossing plus the\n");
  std::printf("stamp, amortized across the batch.  overall: %s\n\n",
              all_pass ? "PASS" : "FAIL");
}

/// Trace one enabled run on the microkernel and serialize its flight
/// recorders to Chrome trace_event JSON at `path` (anonymous observer:
/// everything redacted, always exportable).
bool write_trace_export(const std::string& path) {
  trace::Tracer tracer;
  (void)measure("microkernel", Mode::enabled, &tracer);
  trace::TraceExporter exporter(tracer);
  auto json = exporter.chrome_trace_json({});
  if (!json.ok()) return false;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << *json;
  return static_cast<bool>(out);
}

void register_json_benchmarks() {
  // Machine-readable mirror of the report table: wall-clock time of these
  // is meaningless; the counters are the data.
  for (const char* name : kSubstrates) {
    benchmark::RegisterBenchmark(
        ("fig12/" + std::string(name)).c_str(),
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
          state.counters["within_budget"] =
              (overhead_pct(baseline, on) <= 5.0 && off == baseline) ? 1.0
                                                                     : 0.0;
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our own flag before google-benchmark sees the command line.
  std::string export_path;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.starts_with("--trace_export="))
      export_path = std::string(arg.substr(15));
    else
      passthrough.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(passthrough.size());

  if (!machine_readable_output(filtered_argc, passthrough.data()))
    run_report();
  if (!export_path.empty() && !write_trace_export(export_path)) {
    std::fprintf(stderr, "fig12: trace export to %s failed\n",
                 export_path.c_str());
    return 1;
  }
  register_json_benchmarks();
  benchmark::Initialize(&filtered_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
