// One perfbench run: set up a workload several times, warm it up, take the
// count window, and measure closed-loop steps for a fixed time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end metrics. true: half the time untraced, half
  /// traced, then the per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its kept spans (JSON); empty = nowhere.
  std::string trace_out;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  Metrics metrics;
  /// --trace 0: the median over the timed blocks of host_factor, the scale
  /// applied to their host times (1 = the reference ran at nominal speed).
  double host_factor = 0;
};

/// Throws std::runtime_error on an unknown workload or a metric it could
/// not measure (a percentile without enough samples beyond it).
RunReport run_benchmark(const RunOptions& options);

/// Set a workload up once, warm it up and run exactly its count window,
/// untimed. Returns the window's counts plus sim_cycles_per_op: the numbers
/// that must repeat exactly for the same seed.
Metrics count_window(const WorkloadInfo& info, std::uint64_t seed,
                     StepLog& log);

const WorkloadInfo& find_workload(const std::string& name);

}  // namespace perfbench
