// The names and units of every metric perfbench reports. BENCHMARK.json at
// the repository root lists the same names; a run with --trace 0 emits the
// end-to-end set, a run with --trace 1 the per-layer set.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// The 8 substrate backends, in the order crossing_mix visits them.
const std::vector<std::string>& backends();

}  // namespace perfbench
