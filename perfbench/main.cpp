// perfbench: host-time and simulated-cycle benchmark of the lateral library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// Prints the run context, every metric with its unit and sample count, and
// as the last line one JSON object {correct, attempted, failed, metrics}.
// Exits 1 when a correctness check failed, 2 on a usage or measurement error
// (then without a result line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "catalog.h"
#include "runner.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("bad argument: " + key);
    args[key.substr(2)] = argv[++i];
  }
  RunOptions options;
  options.workload = args["workload"];
  options.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
  options.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
  options.trace = args.count("trace") && args["trace"] != "0";
  options.trace_out = args["trace-out"];
  const std::string commit = args.count("commit") ? args["commit"] : "unknown";

  std::printf(
      "context: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"sanitizer\": %s, \"compiler\": %s, \"nproc\": %u, \"commit\": %s}\n",
      quoted(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0,
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_CXX_FLAGS).c_str(),
      quoted(sanitizer()).c_str(), quoted(__VERSION__).c_str(),
      std::thread::hardware_concurrency(), quoted(commit).c_str());

  const RunReport report = run_benchmark(options);
  const auto& specs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const Metric& m = report.metrics.at(spec.name);
    if (!std::isfinite(m.value))
      throw std::runtime_error("non-finite value for " + spec.name);
    std::printf("  %-36s %16.6g %-7s n=%llu\n", spec.name.c_str(), m.value,
                spec.unit.c_str(), static_cast<unsigned long long>(m.samples));
    json += first ? "" : ", ";
    first = false;
    json += quoted(spec.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + quoted(spec.unit) + "}";
  }
  json += "}}";
  std::printf("  %-36s %16.6g %-7s n=%llu\n", "error_rate",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio", static_cast<unsigned long long>(report.attempted));
  if (!options.trace)
    std::printf("host: host times scaled by %.4f (median over blocks)\n",
                report.host_factor);
  if (report.failed)
    std::printf("first failure: %s\n", report.first_failure.c_str());
  std::printf("%s\n", json.c_str());
  return report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
