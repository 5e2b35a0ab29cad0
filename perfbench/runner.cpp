#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "catalog.h"

namespace perfbench {

const std::vector<WorkloadInfo>& workloads() {
  // warmup_steps / window_steps are in steps: a 32-meter round, one
  // reconnect, one mail session, one round on one substrate.
  static const std::vector<WorkloadInfo> all = {
      {"fleet_ingest", make_fleet_ingest, 4, 16},
      {"fleet_reconnect", make_fleet_reconnect, 4, 32},
      {"mail_session", make_mail_session, 1, 4},
      {"crossing_mix", make_crossing_mix, 8, 16},
  };
  return all;
}

const WorkloadInfo& find_workload(const std::string& name) {
  for (const WorkloadInfo& info : workloads())
    if (name == info.name) return info;
  throw std::runtime_error("unknown workload: " + name);
}

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Past this, a loop stops even if a percentile still lacks samples (the
/// percentile then refuses and the run fails), keeping a run under 180 s.
constexpr double kMaxLoopSeconds = 120;

/// Timing blocks: a timed loop is cut into blocks of at least this long.
constexpr std::int64_t kBlockNs = 500'000'000;
/// Host time between reference slices in a timed loop (a slice is ~2% of it).
constexpr std::int64_t kSliceEveryNs = 20'000'000;
/// Reference slices timed around each set-up.
constexpr int kSetupSlices = 3;

/// A stretch of a timed loop, at least kBlockNs long.
struct Block {
  std::size_t ops = 0;
  std::int64_t ns = 0;               // host time of its steps
  std::vector<std::int64_t> slices;  // reference slices run between them
};

struct Phase {
  std::size_t steps = 0;
  std::size_t ops = 0;
  std::int64_t ns = 0;
  std::vector<Block> blocks;
};

std::int64_t median(std::vector<std::int64_t> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// What turns a measured host time into a reported one: the nominal slice
/// time over the median slice time measured beside it.
double host_factor(const std::vector<std::int64_t>& slices) {
  return Reference::kNominalSliceNs / static_cast<double>(median(slices));
}

/// A p99 is taken only once its samples fill this many stretches (see
/// stretch_percentile), so one slow stretch of the host cannot set it.
constexpr std::size_t kTailStretches = 5;

bool tails_ready(const StepLog& log) {
  const std::size_t tail = kTailStretches * samples_needed(0.99);
  return log.op_us.size() >= tail && log.minor_us.size() >= tail &&
         log.major_us.size() >= samples_needed(0.5);
}

/// Run steps for at least `min_steps` steps and `seconds` seconds (and, with
/// `tails`, until there are enough samples for every reported percentile,
/// each p99 in kTailStretches stretches). When `window` is set, the first
/// `window_steps` steps are the count window. With a `reference`, a slice
/// of it runs after a block's first step and then every kSliceEveryNs.
Phase run_phase(Workload& w, Tracer& tracer, StepLog& log,
                Reference* reference, std::size_t min_steps, double seconds,
                bool tails, Metrics* window, std::size_t window_steps) {
  Phase phase;
  Cycles cycles_before = 0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const auto cap = static_cast<std::int64_t>(kMaxLoopSeconds * 1e9);
  std::int64_t block_start = start;
  std::int64_t last_slice = start;
  Block block;
  if (window) min_steps = std::max(min_steps, window_steps);
  while (true) {
    if (window && phase.steps == 0) {
      w.window_begin();
      cycles_before = w.sim_cycles();
    }
    const std::int64_t step_start = now_ns();
    const std::size_t ops = w.step(log);
    if (tracer.enabled()) tracer.fold();
    std::int64_t now = now_ns();
    block.ns += now - step_start;
    phase.ops += ops;
    block.ops += ops;
    ++phase.steps;
    if (window && phase.steps == window_steps) {
      w.window_end(phase.ops, *window);
      (*window)["sim_cycles_per_op"] = per_op(
          static_cast<double>(w.sim_cycles() - cycles_before), phase.ops);
    }
    if (reference &&
        (block.slices.empty() || now - last_slice >= kSliceEveryNs)) {
      block.slices.push_back(reference->slice_ns());
      now = last_slice = now_ns();
    }
    phase.ns = now - start;
    const bool closed = now - block_start >= kBlockNs || phase.ns >= cap;
    if (closed) {
      phase.blocks.push_back(std::move(block));
      block = {};
      block_start = now;
      ++log.block;
    }
    if (phase.ns >= cap) break;
    if (phase.steps >= min_steps && phase.ns >= budget &&
        (!tails || (closed && tails_ready(log))))
      break;
  }
  if (block.ops > 0) {
    phase.blocks.push_back(std::move(block));
    ++log.block;
  }
  return phase;
}

/// Alternate blocks of `block` untraced and traced steps for `seconds`, so
/// both see the same machine conditions and, where a workload rotates
/// through parts (crossing_mix's substrates), the same parts; their
/// difference per op is the tracing overhead.
std::pair<Phase, Phase> run_interleaved(Workload& w, Tracer& tracer,
                                        StepLog& log, double seconds,
                                        std::size_t block) {
  Phase plain, traced;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const bool on = (i / block) % 2 == 1;
    Phase& phase = on ? traced : plain;
    tracer.set_enabled(on);
    const std::int64_t step_start = now_ns();
    phase.ops += w.step(log);
    if (on) tracer.fold();
    phase.ns += now_ns() - step_start;
    ++phase.steps;
    if (on && (i + 1) % block == 0 && now_ns() - start >= budget) break;
  }
  tracer.set_enabled(false);
  return {plain, traced};
}

Metric pct(std::span<double> samples, double p, const char* what) {
  // Tails come from stretches, so one stall does not set them; this must
  // run before a median reorders the samples out of time order.
  auto value =
      p > 0.5 ? stretch_percentile(samples, p) : percentile(samples, p);
  if (!value)
    throw std::runtime_error(std::string("too few samples beyond ") + what);
  return {.value = *value, .samples = samples.size()};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Run the warm-up steps, whose samples are discarded; returns their ops.
std::size_t warm_up(Workload& w, const WorkloadInfo& info, StepLog& log) {
  std::size_t ops = 0;
  for (std::size_t i = 0; i < info.warmup_steps; ++i) ops += w.step(log);
  log.clear_samples();
  return ops;
}

}  // namespace

Metrics count_window(const WorkloadInfo& info, std::uint64_t seed,
                     StepLog& log) {
  Tracer tracer;
  auto w = info.make(seed, tracer);
  warm_up(*w, info, log);
  Metrics window;
  run_phase(*w, tracer, log, nullptr, 0, 0, false, &window,
            info.window_steps);
  w->finish(log);
  return window;
}

RunReport run_benchmark(const RunOptions& options) {
  const WorkloadInfo& info = find_workload(options.workload);
  RunReport report;
  StepLog log;
  Tracer tracer;

  // Every host time below is scaled by host_factor() of the reference
  // slices timed beside it (see Reference).
  Reference reference;
  reference.slice_ns();  // first touch: the map's nodes, the code
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    std::vector<std::int64_t> slices;
    for (int j = 0; j < kSetupSlices; ++j)
      slices.push_back(reference.slice_ns());
    const std::int64_t start = now_ns();
    w = info.make(options.seed, tracer);
    const std::int64_t ns = now_ns() - start;
    for (int j = 0; j < kSetupSlices; ++j)
      slices.push_back(reference.slice_ns());
    setup_s.push_back(static_cast<double>(ns) / 1e9 * host_factor(slices));
  }
  report.attempted += warm_up(*w, info, log);

  Metrics window;
  if (!options.trace) {
    const Phase phase = run_phase(*w, tracer, log, &reference, 0,
                                  options.seconds, true, &window,
                                  info.window_steps);
    report.attempted += phase.ops;
    w->finish(log);
    Metrics& m = report.metrics;
    std::sort(setup_s.begin(), setup_s.end());
    m["setup_s"] = {.value = setup_s[setup_s.size() / 2],
                    .samples = setup_s.size()};
    std::vector<double> factor;
    double scaled_ns = 0;
    for (const Block& block : phase.blocks) {
      factor.push_back(host_factor(block.slices));
      scaled_ns += static_cast<double>(block.ns) * factor.back();
    }
    std::vector<double> sorted = factor;
    std::sort(sorted.begin(), sorted.end());
    report.host_factor = sorted[sorted.size() / 2];
    m["ops_per_s"] = {.value = static_cast<double>(phase.ops) /
                               (scaled_ns / 1e9),
                      .samples = phase.ops};
    log.op_us.scale(factor);
    log.major_us.scale(factor);
    log.minor_us.scale(factor);
    m["op_p99_us"] = pct(log.op_us.values(), 0.99, "op_p99_us");
    m["op_p50_us"] = pct(log.op_us.values(), 0.5, "op_p50_us");
    m["major_op_p50_us"] =
        pct(log.major_us.values(), 0.5, "major_op_p50_us");
    m["minor_op_p99_us"] =
        pct(log.minor_us.values(), 0.99, "minor_op_p99_us");
    m["minor_op_p50_us"] =
        pct(log.minor_us.values(), 0.5, "minor_op_p50_us");
    m["sim_cycles_per_op"] = window.at("sim_cycles_per_op");
    m["peak_rss_mb"] = {.value = peak_rss_mb(), .samples = 1};
  } else {
    report.attempted += run_phase(*w, tracer, log, nullptr, 0, 0, false,
                                  &window, info.window_steps)
                            .ops;
    const auto [plain, traced] =
        run_interleaved(*w, tracer, log, options.seconds, info.window_steps);
    report.attempted += plain.ops + traced.ops;
    w->finish(log);

    Metrics& layer = report.metrics;
    layer = window;
    w->span_metrics(tracer, traced.ops, layer);
    const double untraced_us =
        static_cast<double>(plain.ns) / static_cast<double>(plain.ops) / 1e3;
    const double traced_us =
        static_cast<double>(traced.ns) / static_cast<double>(traced.ops) / 1e3;
    layer["trace.untraced_us_per_op"] = {.value = untraced_us,
                                         .samples = plain.ops};
    layer["trace.traced_us_per_op"] = {.value = traced_us,
                                       .samples = traced.ops};
    layer["trace.span_self_us_per_op"] = {
        .value = static_cast<double>(tracer.total_self_ns()) /
                 static_cast<double>(traced.ops) / 1e3,
        .samples = tracer.total_spans()};
    layer["trace.overhead_pct"] = {
        .value = (traced_us / untraced_us - 1.0) * 100.0,
        .samples = traced.ops};
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      tracer.write_json(out);
    }
    w.reset();

    report.attempted += crypto_probes(options.seed, layer, log);
  }

  // Exactly the catalog's set for this mode, all of it. A per-layer metric
  // the workload did not measure belongs to a layer it bypasses: 0, from no
  // samples. Each layer's figures come only from the workload that uses it.
  const auto& specs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  Metrics emitted;
  for (const MetricSpec& spec : specs) {
    auto it = report.metrics.find(spec.name);
    if (it != report.metrics.end())
      emitted.emplace(spec.name, it->second);
    else if (options.trace)
      emitted.emplace(spec.name, Metric{});
    else
      throw std::runtime_error("metric not measured: " + spec.name);
  }
  report.metrics = std::move(emitted);
  report.failed = log.failed;
  report.first_failure = log.first_failure;
  return report;
}

}  // namespace perfbench
