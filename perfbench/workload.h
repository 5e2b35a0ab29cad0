// The perfbench workload interface. A workload owns its whole rig (machines,
// substrates, servers, clients), builds it in its constructor (the timed
// set-up) and then runs closed-loop steps: every caller waits for its reply
// before the next request, all from one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// What one step reports: latency samples in microseconds and failed checks.
/// "major" and "minor" are the workload's heaviest and most frequent op kinds
/// (see README.md for the per-workload meaning).
struct StepLog {
  Samples op_us;
  Samples major_us;
  Samples minor_us;
  std::uint32_t block = 0;  // the runner's current timing block
  std::uint64_t failed = 0;
  std::string first_failure;

  void op(double us, std::size_t times = 1) { op_us.add(us, block, times); }
  void major(double us) { major_us.add(us, block); }
  void minor(double us) { minor_us.add(us, block); }

  void fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
  void clear_samples() {
    block = 0;
    op_us.clear();
    major_us.clear();
    minor_us.clear();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One closed-loop step; returns the number of ops it attempted.
  virtual std::size_t step(StepLog& log) = 0;

  /// Simulated cycles charged so far on every machine of the rig, minus the
  /// idle cycles the benchmark itself advanced.
  virtual Cycles sim_cycles() const = 0;

  /// Bracket the count window: a fixed number of steps right after warm-up,
  /// over which counts (allocations, datagrams, cache hits) are taken. The
  /// window is the same for the same seed, so its counts repeat exactly.
  virtual void window_begin() = 0;
  virtual void window_end(std::size_t ops, Metrics& layer) = 0;

  /// Per-layer times from the spans of a traced phase of `ops` ops.
  virtual void span_metrics(const Tracer& tracer, std::size_t ops,
                            Metrics& layer) const = 0;

  /// End-of-run invariants (queue accounting, nothing shed).
  virtual void finish(StepLog& log) = 0;
};

struct WorkloadInfo {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, Tracer& tracer);
  std::size_t warmup_steps;
  std::size_t window_steps;
};

const std::vector<WorkloadInfo>& workloads();

std::unique_ptr<Workload> make_fleet_ingest(std::uint64_t seed, Tracer& tracer);
std::unique_ptr<Workload> make_fleet_reconnect(std::uint64_t seed,
                                               Tracer& tracer);
std::unique_ptr<Workload> make_mail_session(std::uint64_t seed, Tracer& tracer);
std::unique_ptr<Workload> make_crossing_mix(std::uint64_t seed, Tracer& tracer);

/// Time the public crypto functions at the sizes the workloads use and add
/// the crypto.* per-layer metrics. Round-trip failures go to `log`.
std::size_t crypto_probes(std::uint64_t seed, Metrics& layer, StepLog& log);

/// Per-op average of a counter delta.
inline Metric per_op(double total, std::size_t ops) {
  return {.value = ops ? total / static_cast<double>(ops) : 0.0,
          .samples = ops};
}

/// Mean self time of a span name, scaled: total self ns / divisor / scale.
inline Metric span_mean(const Tracer& tracer, std::string_view name,
                        double divisor, double scale) {
  const Tracer::Total total = tracer.total(name);
  return {.value = divisor > 0
                       ? static_cast<double>(total.self_ns) / divisor / scale
                       : 0.0,
          .samples = total.count};
}

}  // namespace perfbench
