// Measurement harness for perfbench: seeded input generation,
// percentiles that refuse to extrapolate, the span recorder the traced run
// uses, and the metric table every run prints.
//
// Everything here is single-threaded by design: the workloads are closed
// loops driven from one thread, so the recorder needs no locks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace perfbench {

using lateral::Bytes;
using lateral::BytesView;
using lateral::Cycles;

/// Heap allocations made by this process so far (counting operator new,
/// alloc_counter.cpp). Exact and deterministic for a single-threaded run.
std::uint64_t allocations();

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

/// SplitMix64: the only source of workload inputs. Same seed, same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);
  Bytes bytes(std::size_t n);
  /// Lower-case letters and digits, handy for markers that survive HTML
  /// sanitizing and substring search.
  std::string token(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Samples needed beyond a percentile before it is reported.
constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (p in [0, 1]); reorders `samples`. Refuses
/// (nullopt) when fewer than kMinBeyond samples lie strictly above the chosen
/// rank, so a p99 is only ever reported from at least 1000 samples.
std::optional<double> percentile(std::span<double> samples, double p);

/// Fewest samples for which percentile(samples, p) can answer.
std::size_t samples_needed(double p);

/// A tail percentile that a short stall cannot move: `samples` (in time
/// order) are cut into up to 5 consecutive stretches that each hold
/// samples_needed(p) samples, and the median of the stretches' percentiles
/// is returned. With samples for only one stretch it is percentile().
/// Reorders samples within their stretch.
std::optional<double> stretch_percentile(std::span<double> samples, double p);

/// Latency samples in bounded memory, each tagged with the timing block it
/// was taken in. Keeps every stride-th observation and, whenever the buffer
/// fills, drops every other kept one and doubles the stride, so the kept set
/// is an even thinning of the whole run however long it is. The buffers are
/// allocated and touched up front, so peak RSS does not depend on how many
/// ops a run completes.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  Samples() : values_(kCapacity), blocks_(kCapacity) {}
  void add(double value, std::uint32_t block, std::size_t times = 1);
  /// Multiply each kept sample by its block's factor (a block past the end
  /// of `factor` keeps its value).
  void scale(const std::vector<double>& factor);
  std::span<double> values() { return {values_.data(), size_}; }
  std::size_t size() const { return size_; }
  void clear();

 private:
  std::vector<double> values_;
  std::vector<std::uint32_t> blocks_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
};

/// Host-speed reference: a fixed piece of generic C++ work that never calls
/// the library. Each iteration copies a 16-255 B slice into a fresh heap
/// buffer, hashes it a word at a time, replaces an entry of a 64-entry
/// ordered map with it and passes the hash through a std::function. On a
/// shared host, neighbours' load slows the benchmark's steps and this work
/// together, so a step's time divided by the reference's time next to it
/// keeps what the library costs and drops most of what the host did.
class Reference {
 public:
  /// Iterations in one slice, and untimed ones run first, so that the
  /// caches the steps left behind do not set the slice's time.
  static constexpr int kIterations = 4096;
  static constexpr int kWarmIterations = 256;
  /// Host time of one slice at which reported times equal measured times:
  /// about a slice's median on the 4-core VM the benchmark was tuned on.
  static constexpr double kNominalSliceNs = 500'000;

  Reference();
  /// Run one slice; returns its host time in nanoseconds.
  std::int64_t slice_ns();

 private:
  void run(int iterations);

  std::array<std::uint8_t, 256> source_{};
  std::map<std::uint32_t, Bytes> entries_;
  std::function<std::uint64_t(std::uint64_t)> mix_;
  std::uint64_t state_ = 0;
  std::uint64_t hash_ = 0;
};

// --- Spans ------------------------------------------------------------------

constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;  // index into the same span buffer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;
};

/// Self time of each span: its duration minus the part of its interval its
/// children cover (overlapping children are merged, and children are clipped
/// to the parent). Parents must precede their children in `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// In-memory span recorder. Spans nest through an open-span stack, so a
/// handler span opened inside a substrate call gets that call's span as its
/// parent. fold() closes a step: it adds the buffered spans' self times to
/// per-name totals and keeps the first kKeep spans for write_json().
class Tracer {
 public:
  static constexpr std::size_t kKeep = 20000;

  std::uint32_t intern(std::string_view name);
  const std::vector<std::string>& names() const { return names_; }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t begin(std::uint32_t name, std::uint64_t op);
  void end(std::uint32_t index);
  void fold();

  struct Total {
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };
  Total total(std::uint32_t name) const;
  Total total(std::string_view name) const;
  /// Sum of every span's self time: the host time the spans account for.
  std::int64_t total_self_ns() const;
  std::uint64_t total_spans() const;

  /// Kept spans as a JSON array of {name, start_ns, end_ns, parent, op}.
  void write_json(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Span> open_;  // spans of the current step
  std::vector<std::uint32_t> stack_;
  std::vector<Total> totals_;
  std::vector<Span> kept_;
};

/// RAII span; free (no clock read) when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name, std::uint64_t op)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(name, op) : kNoParent) {}
  ~Scope() {
    if (index_ != kNoParent) tracer_.end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

// --- Metrics ----------------------------------------------------------------

/// A measured value; its unit comes from the metric catalog (catalog.h).
struct Metric {
  double value = 0;
  std::uint64_t samples = 0;  // observations behind the value
};
using Metrics = std::map<std::string, Metric>;

/// Metric and span names: [A-Za-z0-9_.-]+.
bool valid_name(std::string_view name);

/// Shortest round-trip text for a double (all its digits).
std::string json_number(double value);

}  // namespace perfbench
