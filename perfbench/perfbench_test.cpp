// Tests of the benchmark itself: its statistics, its span arithmetic, its
// metric names, and the determinism of what it generates and counts.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "catalog.h"
#include "harness.h"
#include "runner.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

std::optional<double> pct(std::vector<double> samples, double p) {
  return percentile(samples, p);
}

TEST(Percentile, RefusesP99WithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(pct(ramp(999), 0.99).has_value());
  ASSERT_TRUE(pct(ramp(1000), 0.99).has_value());
  EXPECT_EQ(*pct(ramp(1000), 0.99), 990.0);
  EXPECT_EQ(samples_needed(0.99), 1000u);
}

TEST(Percentile, MedianNeedsTwentySamples) {
  EXPECT_FALSE(pct(ramp(19), 0.5).has_value());
  ASSERT_TRUE(pct(ramp(20), 0.5).has_value());
  EXPECT_EQ(*pct(ramp(20), 0.5), 10.0);
  EXPECT_FALSE(pct({}, 0.5).has_value());
}

TEST(Percentile, StretchesKeepOneStallOutOfTheTail) {
  std::vector<double> samples(5000);
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i] = 1.0 + static_cast<double>(i % 100) / 100;
  for (std::size_t i = 100; i < 200; ++i) samples[i] = 1000.0;  // one stall
  const double plain = *pct(samples, 0.99);
  EXPECT_EQ(plain, 1000.0);
  EXPECT_LT(*stretch_percentile(samples, 0.99), 2.0);
  std::vector<double> few = ramp(1500);  // one stretch: plain percentile
  EXPECT_EQ(*stretch_percentile(few, 0.99), *pct(ramp(1500), 0.99));
}

TEST(Samples, ThinsEvenlyInBoundedMemory) {
  Samples samples;
  const std::size_t n = 3 * Samples::kCapacity;
  for (std::size_t i = 0; i < n; ++i)
    samples.add(static_cast<double>(i), static_cast<std::uint32_t>(i % 2));
  EXPECT_LE(samples.size(), Samples::kCapacity);
  EXPECT_GE(samples.size(), Samples::kCapacity / 2);
  // An even thinning keeps the median of the whole stream.
  const double median = *percentile(samples.values(), 0.5);
  EXPECT_NEAR(median, static_cast<double>(n) / 2, static_cast<double>(n) / 100);
}

TEST(Samples, ScaleMultipliesEachBlockByItsFactor) {
  Samples samples;
  for (std::uint32_t block = 0; block < 3; ++block)
    samples.add(10.0 * (block + 1), block, 2);
  samples.scale({0.5, 2.0});  // block 2 has no factor: unchanged
  const std::span<double> v = samples.values();
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], 5.0);
  EXPECT_EQ(v[1], 5.0);
  EXPECT_EQ(v[2], 40.0);
  EXPECT_EQ(v[3], 40.0);
  EXPECT_EQ(v[4], 30.0);
  EXPECT_EQ(v[5], 30.0);
}

TEST(SelfTime, DurationMinusMergedClippedChildCover) {
  const std::vector<Span> spans = {
      {.name = 0, .parent = kNoParent, .start_ns = 0, .end_ns = 100},
      {.name = 1, .parent = 0, .start_ns = 10, .end_ns = 30},
      {.name = 1, .parent = 0, .start_ns = 20, .end_ns = 50},   // overlaps
      {.name = 2, .parent = 2, .start_ns = 25, .end_ns = 35},   // grandchild
      {.name = 1, .parent = 0, .start_ns = 90, .end_ns = 120},  // clipped
      {.name = 3, .parent = kNoParent, .start_ns = 200, .end_ns = 210},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  // Parent covered by [10,50) and [90,100): 50 of its 100 ns.
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);  // 30 minus the grandchild's 10
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 30);
  EXPECT_EQ(self[5], 10);
}

TEST(SelfTime, TracerFoldsNestedScopes) {
  Tracer tracer;
  const std::uint32_t outer = tracer.intern("outer");
  const std::uint32_t inner = tracer.intern("inner");
  tracer.set_enabled(true);
  {
    Scope a(tracer, outer, 1);
    Scope b(tracer, inner, 1);
  }
  tracer.fold();
  EXPECT_EQ(tracer.total(outer).count, 1u);
  EXPECT_EQ(tracer.total(inner).count, 1u);
  EXPECT_GE(tracer.total(outer).self_ns, 0);
  std::ostringstream out;
  tracer.write_json(out);
  EXPECT_NE(out.str().find("\"parent\":0"), std::string::npos);
}

TEST(Names, EveryMetricAndSpanNameIsWellFormed) {
  std::size_t count = 0;
  for (const auto* set : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& spec : *set) {
      EXPECT_TRUE(valid_name(spec.name)) << spec.name;
      EXPECT_LE(spec.name.size(), 64u) << spec.name;
      ++count;
    }
  EXPECT_GT(count, 0u);
  EXPECT_FALSE(valid_name("ui->storage"));
  for (const WorkloadInfo& info : workloads()) {
    Tracer tracer;
    auto workload = info.make(1, tracer);
    for (const std::string& name : tracer.names())
      EXPECT_TRUE(valid_name(name)) << info.name << ": " << name;
  }
}

TEST(Names, CatalogMatchesBenchmarkManifest) {
  std::ifstream in(PERFBENCH_MANIFEST);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  for (const auto* set : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& spec : *set)
      EXPECT_NE(text.str().find("\"name\": \"" + spec.name + "\", \"unit\": \"" +
                                spec.unit + "\""),
                std::string::npos)
          << spec.name;
}

TEST(Layers, EveryPerLayerMetricIsMeasuredBySomeWorkload) {
  // A traced run reports a layer it bypasses as 0 from no samples, so each
  // per-layer metric needs a workload whose traced run measures it.
  std::map<std::string, std::uint64_t> samples;
  for (const WorkloadInfo& info : workloads()) {
    const RunReport report = run_benchmark(
        {.workload = info.name, .seed = 3, .seconds = 0.2, .trace = true});
    EXPECT_EQ(report.failed, 0u) << info.name << ": " << report.first_failure;
    for (const auto& [name, metric] : report.metrics)
      samples[name] += metric.samples;
  }
  ASSERT_EQ(samples.size(), per_layer_metrics().size());
  for (const MetricSpec& spec : per_layer_metrics())
    EXPECT_GT(samples[spec.name], 0u) << spec.name;
}

TEST(Determinism, SameSeedRepeatsCountsExactly) {
  for (const WorkloadInfo& info : workloads()) {
    StepLog log;
    const Metrics a = count_window(info, 7, log);
    const Metrics b = count_window(info, 7, log);
    EXPECT_EQ(log.failed, 0u) << info.name << ": " << log.first_failure;
    ASSERT_TRUE(a.count("sim_cycles_per_op")) << info.name;
    ASSERT_EQ(a.size(), b.size()) << info.name;
    for (const auto& [name, metric] : a) {
      EXPECT_EQ(metric.value, b.at(name).value) << info.name << ": " << name;
      EXPECT_EQ(metric.samples, b.at(name).samples) << info.name << ": "
                                                    << name;
    }
  }
}

TEST(Determinism, DifferentSeedChangesInputs) {
  Rng a(1), b(2);
  EXPECT_NE(a.bytes(64), b.bytes(64));
  StepLog log;
  const WorkloadInfo& mix = find_workload("crossing_mix");
  EXPECT_NE(count_window(mix, 1, log).at("sim_cycles_per_op").value,
            count_window(mix, 2, log).at("sim_cycles_per_op").value);
  const WorkloadInfo& mail = find_workload("mail_session");
  EXPECT_NE(count_window(mail, 1, log).at("mail.ui_storage.zero_copy_bytes")
                .value,
            count_window(mail, 2, log).at("mail.ui_storage.zero_copy_bytes")
                .value);
  EXPECT_EQ(log.failed, 0u) << log.first_failure;
}

}  // namespace
}  // namespace perfbench
