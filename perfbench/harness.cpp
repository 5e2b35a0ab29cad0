#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(next() >> 56);
  return out;
}

std::string Rng::token(std::size_t n) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out(n, 'a');
  for (char& c : out) c = kAlphabet[next() % (sizeof kAlphabet - 1)];
  return out;
}

namespace {

// 0-based nearest-rank index of percentile p in n sorted samples.
std::size_t rank_index(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
}

}  // namespace

std::optional<double> percentile(std::span<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t k = rank_index(n, p);
  if (n - 1 - k < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

std::size_t samples_needed(double p) {
  std::size_t n = 1;
  while (n - 1 - rank_index(n, p) < kMinBeyond) ++n;
  return n;
}

void Samples::add(double value, std::uint32_t block, std::size_t times) {
  for (std::size_t i = 0; i < times; ++i) {
    if (seen_++ % stride_ != 0) continue;
    values_[size_] = value;
    blocks_[size_] = block;
    if (++size_ < kCapacity) continue;
    for (std::size_t j = 0; j < kCapacity / 2; ++j) {
      values_[j] = values_[2 * j];
      blocks_[j] = blocks_[2 * j];
    }
    size_ = kCapacity / 2;
    stride_ *= 2;
  }
}

void Samples::scale(const std::vector<double>& factor) {
  for (std::size_t i = 0; i < size_; ++i)
    if (blocks_[i] < factor.size()) values_[i] *= factor[blocks_[i]];
}

void Samples::clear() {
  size_ = 0;
  seen_ = 0;
  stride_ = 1;
}

std::optional<double> stretch_percentile(std::span<double> samples,
                                         double p) {
  constexpr std::size_t kStretches = 5;
  const std::size_t n = samples.size();
  const std::size_t k = std::min(kStretches, n / samples_needed(p));
  if (k <= 1) return percentile(samples, p);
  std::vector<double> values;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t begin = n * i / k;
    const std::size_t end = n * (i + 1) / k;
    values.push_back(*percentile(samples.subspan(begin, end - begin), p));
  }
  std::nth_element(values.begin(), values.begin() + k / 2, values.end());
  return values[k / 2];
}

Reference::Reference()
    : mix_([](std::uint64_t h) {
        return (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ull;
      }) {
  Rng rng(0x5EED);
  for (std::uint8_t& byte : source_)
    byte = static_cast<std::uint8_t>(rng.next() >> 56);
}

std::int64_t Reference::slice_ns() {
  run(kWarmIterations);
  const std::int64_t start = now_ns();
  run(kIterations);
  return now_ns() - start;
}

void Reference::run(int iterations) {
  for (int i = 0; i < iterations; ++i) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t length = 16 + (state_ >> 33) % 240;
    Bytes copy(source_.begin(), source_.begin() + length);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j + 8 <= length; j += 8) {
      std::memcpy(&word, copy.data() + j, 8);
      hash_ = (hash_ ^ word) * 0x100000001B3ull;
    }
    entries_[static_cast<std::uint32_t>(state_ >> 58)] = std::move(copy);
    hash_ = mix_(hash_);
  }
  source_[hash_ % source_.size()] ^= static_cast<std::uint8_t>(hash_);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cover(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    const std::uint32_t parent = spans[i].parent;
    if (parent == kNoParent || parent >= i) continue;
    const Span& p = spans[parent];
    const std::int64_t lo = std::max(spans[i].start_ns, p.start_ns);
    const std::int64_t hi = std::min(spans[i].end_ns, p.end_ns);
    if (lo < hi) cover[parent].emplace_back(lo, hi);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = cover[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] -= covered;
  }
  return self;
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(std::uint32_t name, std::uint64_t op) {
  const auto index = static_cast<std::uint32_t>(open_.size());
  open_.push_back({.name = name,
                   .parent = stack_.empty() ? kNoParent : stack_.back(),
                   .start_ns = 0,
                   .end_ns = 0,
                   .op = op});
  stack_.push_back(index);
  open_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(std::uint32_t index) {
  open_[index].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::fold() {
  const std::vector<std::int64_t> self = self_times(open_);
  const auto base = static_cast<std::uint32_t>(kept_.size());
  for (std::size_t i = 0; i < open_.size(); ++i) {
    Total& total = totals_[open_[i].name];
    total.self_ns += self[i];
    ++total.count;
    if (kept_.size() < kKeep) {
      Span kept = open_[i];
      if (kept.parent != kNoParent) kept.parent += base;
      kept_.push_back(kept);
    }
  }
  open_.clear();
}

Tracer::Total Tracer::total(std::uint32_t name) const {
  return name < totals_.size() ? totals_[name] : Total{};
}

Tracer::Total Tracer::total(std::string_view name) const {
  for (std::uint32_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return totals_[i];
  return {};
}

std::int64_t Tracer::total_self_ns() const {
  std::int64_t sum = 0;
  for (const Total& t : totals_) sum += t.self_ns;
  return sum;
}

std::uint64_t Tracer::total_spans() const {
  std::uint64_t sum = 0;
  for (const Total& t : totals_) sum += t.count;
  return sum;
}

void Tracer::write_json(std::ostream& out) const {
  out << "[";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << names_[s.name]
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << ",\"op\":" << s.op << "}";
  }
  out << "\n]\n";
}

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace perfbench
