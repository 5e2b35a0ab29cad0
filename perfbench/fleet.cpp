// fleet_ingest and fleet_reconnect: the paper's Fig. 3 meter -> utility
// channel at fleet scale. One SGX "utility" machine runs the anonymizer
// (the batched service domain) behind a FleetServer; one TrustZone "meter"
// machine hosts the metering component every FleetClient attests as.
#include <array>
#include <stdexcept>

#include "core/attestation.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_server.h"
#include "fleet/verification_cache.h"
#include "net/network.h"
#include "rig.h"
#include "runtime/metrics.h"
#include "toolbox/anonymizer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace lateral;

constexpr std::size_t kMeters = 32;
constexpr std::size_t kReadingBytes = 64;
constexpr std::size_t kEncodedReading = 24;  // toolbox::encode_reading
constexpr std::size_t kPayloadPool = 1024;
constexpr Cycles kRoundIdle = 1'000'000;

std::uint8_t ack_byte(BytesView reading) {
  std::uint8_t sum = 0xA5;
  for (const std::uint8_t b : reading) sum = static_cast<std::uint8_t>(sum + b);
  return sum;
}

/// Counts read at the edges of the count window.
struct FleetSnapshot {
  std::uint64_t allocs = 0;
  net::NetStats net;
  runtime::InvocationCounters mux;
  runtime::FleetStats fleet;
  fleet::CacheStats cache;
};

class FleetRig {
 public:
  FleetRig(const std::string& label, Tracer& tracer, std::uint64_t& op)
      : label_(label) {
    server_machine = make_machine("utility");
    sgx = *registry().create("sgx", *server_machine);
    const auto anonymizer = *sgx->create_domain(tc_spec("anonymizer"));
    const auto frontend = *sgx->create_domain(tc_spec("frontend"));
    const auto channel = *sgx->create_channel(frontend, anonymizer);
    const std::uint32_t handler_span = tracer.intern("fleet.handler");
    (void)sgx->set_handler(
        anonymizer,
        [&tracer, &op, handler_span](
            const substrate::Invocation& inv) -> Result<Bytes> {
          Scope span(tracer, handler_span, op);
          if (inv.data.size() != kReadingBytes) return Errc::invalid_argument;
          auto reading =
              toolbox::decode_reading(inv.data.first(kEncodedReading));
          if (!reading) return reading.error();
          return Bytes{ack_byte(inv.data)};
        });

    meter_machine = make_machine("meter");
    tz = *registry().create("trustzone", *meter_machine);
    const auto metering = *tz->create_domain(tc_spec("metering"));

    meter_verifier =
        std::make_unique<core::AttestationVerifier>(to_bytes("perf-mv"));
    meter_verifier->add_trusted_root(vendor().root_public_key());
    meter_verifier->expect_measurement(
        "anonymizer", tc_spec("anonymizer").image.measurement());
    // The library's default capacity and TTL: a verdict expires after
    // 50 Mcycles of the utility's clock, so fleet_reconnect re-verifies a
    // quote in full whenever the meters' shared entry has aged out.
    utility_verifier = std::make_unique<fleet::CachedVerifier>(
        to_bytes("perf-uv"), fleet::CacheConfig{.clock = server_machine.get()});
    utility_verifier->add_trusted_root(vendor().root_public_key());
    utility_verifier->expect_measurement(
        "metering", tc_spec("metering").image.measurement());

    network = std::make_unique<net::SimNetwork>();
    (void)network->register_endpoint("utility");

    fleet::FleetServerConfig config;
    config.endpoint = "utility";
    config.network = network.get();
    config.substrate = sgx.get();
    config.service_domain = anonymizer;
    config.frontend_domain = frontend;
    config.service_channel = channel;
    config.verifier = utility_verifier.get();
    config.expected_client = "metering";
    config.hub = &hub;
    config.label = label;
    server = std::make_unique<fleet::FleetServer>(std::move(config));

    for (std::size_t i = 0; i < kMeters; ++i) {
      fleet::FleetClientConfig mc;
      mc.endpoint = "meter-" + std::to_string(i);
      mc.server_endpoint = "utility";
      mc.network = network.get();
      mc.prover = net::ProverConfig{tz.get(), metering};
      mc.verifier = net::VerifierConfig{meter_verifier.get(), "anonymizer"};
      mc.drive = [s = server.get()] { (void)s->pump(); };
      meters.push_back(std::make_unique<fleet::FleetClient>(std::move(mc)));
      if (!meters.back()->connect().ok())
        throw std::runtime_error("fleet set-up: meter connect failed");
    }
  }

  Cycles charged() const {
    return server_machine->now() + meter_machine->now();
  }

  FleetSnapshot snapshot() {
    return {.allocs = allocations(),
            .net = network->stats(),
            .mux = hub.counters(label_ + ".mux").snapshot(),
            .fleet = server->stats(),
            .cache = utility_verifier->cache_stats()};
  }

  /// Window counts every fleet workload reports natively.
  static void window_counts(const FleetSnapshot& a, const FleetSnapshot& b,
                            std::size_t ops, Metrics& layer) {
    layer["net.datagrams_per_op"] =
        per_op(static_cast<double>(b.net.messages - a.net.messages), ops);
    layer["net.wire_bytes_per_op"] =
        per_op(static_cast<double>(b.net.bytes - a.net.bytes), ops);
    layer["runtime.doorbells_per_op"] =
        per_op(static_cast<double>(b.mux.batches - a.mux.batches), ops);
    layer["runtime.crossing_cycles_per_op"] = per_op(
        static_cast<double>(b.mux.crossing_cycles - a.mux.crossing_cycles),
        ops);
    auto count = [&](std::uint64_t before, std::uint64_t after) {
      return Metric{.value = static_cast<double>(after - before),
                    .samples = ops};
    };
    layer["fleet.verify_cache_hits"] = count(a.cache.hits, b.cache.hits);
    layer["fleet.verify_cache_misses"] = count(a.cache.misses, b.cache.misses);
    layer["fleet.tickets_issued"] =
        count(a.fleet.tickets_issued, b.fleet.tickets_issued);
    layer["fleet.tickets_rejected"] =
        count(a.fleet.tickets_rejected, b.fleet.tickets_rejected);
  }

  void check_accounting(StepLog& log) {
    if (server->stats().admission_shed != 0)
      log.fail(label_ + ": admission gate shed readings");
    for (const std::string& label : {label_, label_ + ".mux"}) {
      const auto c = hub.counters(label).snapshot();
      if (c.submitted != c.completed + c.cancelled)
        log.fail(label + ": submitted != completed + cancelled");
    }
  }

  std::unique_ptr<hw::Machine> server_machine;
  std::unique_ptr<substrate::IsolationSubstrate> sgx;
  std::unique_ptr<hw::Machine> meter_machine;
  std::unique_ptr<substrate::IsolationSubstrate> tz;
  std::unique_ptr<core::AttestationVerifier> meter_verifier;
  std::unique_ptr<fleet::CachedVerifier> utility_verifier;
  std::unique_ptr<net::SimNetwork> network;
  runtime::MetricsHub hub;
  std::unique_ptr<fleet::FleetServer> server;
  std::vector<std::unique_ptr<fleet::FleetClient>> meters;

 private:
  std::string label_;
};

double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

// ---------------------------------------------------------------------------
// fleet_ingest: every meter submits one sealed 64 B reading, the server pumps
// once, the machine idles 1 Mcycle, every meter collects its ack.

class FleetIngest final : public Workload {
 public:
  FleetIngest(std::uint64_t seed, Tracer& tracer)
      : tracer_(tracer),
        rig_("ingest", tracer, op_),
        submit_span_(tracer.intern("fleet.client_submit")),
        pump_span_(tracer.intern("fleet.server_pump")),
        collect_span_(tracer.intern("fleet.client_collect")) {
    Rng rng(seed);
    payloads_.reserve(kPayloadPool);
    for (std::size_t i = 0; i < kPayloadPool; ++i) {
      const toolbox::Reading reading{
          .household = rng.uniform(0, 1'000'000),
          .bucket = rng.uniform(0, 8760),
          .kwh = static_cast<double>(rng.uniform(0, 50'000)) / 1000.0};
      Bytes payload = toolbox::encode_reading(reading);
      const Bytes filler = rng.bytes(kReadingBytes - payload.size());
      payload.insert(payload.end(), filler.begin(), filler.end());
      payloads_.push_back(std::move(payload));
    }
  }

  std::size_t step(StepLog& log) override {
    std::array<std::int64_t, kMeters> sent{};
    std::array<std::uint8_t, kMeters> expect{};
    const std::uint64_t first_op = op_;
    for (std::size_t i = 0; i < kMeters; ++i) {
      const Bytes& payload = payloads_[(first_op + i) % kPayloadPool];
      expect[i] = ack_byte(payload);
      op_ = first_op + i;
      sent[i] = now_ns();
      Status status = Status::success();
      {
        Scope span(tracer_, submit_span_, op_);
        status = rig_.meters[i]->submit("report", payload);
      }
      log.minor(us_between(sent[i], now_ns()));
      if (!status.ok()) log.fail("fleet_ingest: submit failed");
    }
    const std::int64_t pump_start = now_ns();
    {
      Scope span(tracer_, pump_span_, first_op);
      if (!rig_.server->pump().ok()) log.fail("fleet_ingest: pump failed");
    }
    log.major(us_between(pump_start, now_ns()));
    rig_.server_machine->advance(kRoundIdle);
    idle_ += kRoundIdle;
    for (std::size_t i = 0; i < kMeters; ++i) {
      Result<Bytes> reply = Errc::would_block;
      {
        Scope span(tracer_, collect_span_, first_op + i);
        reply = rig_.meters[i]->collect();
      }
      log.op(us_between(sent[i], now_ns()));
      if (!reply.ok() || reply->size() != 1 || (*reply)[0] != expect[i])
        log.fail("fleet_ingest: reading not acked with the handler's byte");
    }
    op_ = first_op + kMeters;
    return kMeters;
  }

  Cycles sim_cycles() const override { return rig_.charged() - idle_; }

  void window_begin() override { window_ = rig_.snapshot(); }

  void window_end(std::size_t ops, Metrics& layer) override {
    const FleetSnapshot now = rig_.snapshot();
    layer["fleet.allocs_per_op"] =
        per_op(static_cast<double>(now.allocs - window_.allocs), ops);
    FleetRig::window_counts(window_, now, ops, layer);
  }

  void span_metrics(const Tracer& tracer, std::size_t ops,
                    Metrics& layer) const override {
    const double readings = static_cast<double>(ops);
    layer["fleet.client_submit_us"] =
        span_mean(tracer, "fleet.client_submit", readings, 1e3);
    layer["fleet.server_pump_us_per_reading"] =
        span_mean(tracer, "fleet.server_pump", readings, 1e3);
    layer["fleet.client_collect_us"] =
        span_mean(tracer, "fleet.client_collect", readings, 1e3);
    layer["fleet.handler_self_us"] =
        span_mean(tracer, "fleet.handler", readings, 1e3);
  }

  void finish(StepLog& log) override { rig_.check_accounting(log); }

 private:
  Tracer& tracer_;
  std::uint64_t op_ = 0;  // reading id; the handler span reads it
  FleetRig rig_;
  std::uint32_t submit_span_, pump_span_, collect_span_;
  std::vector<Bytes> payloads_;
  Cycles idle_ = 0;
  FleetSnapshot window_;
};

// ---------------------------------------------------------------------------
// fleet_reconnect: meters take turns; each turn is one op made of a full
// handshake (which grants a ticket) followed at once by the resumption that
// spends it. Resuming at once keeps the ticket inside its 5 Mcycle TTL.

class FleetReconnect final : public Workload {
 public:
  FleetReconnect(std::uint64_t seed, Tracer& tracer)
      : tracer_(tracer),
        rig_("reconnect", tracer, op_),
        full_span_(tracer.intern("fleet.reconnect_full")),
        resume_span_(tracer.intern("fleet.reconnect_resume")) {
    // The seed picks the order in which meters take turns.
    Rng rng(seed);
    for (std::size_t i = 0; i < kMeters; ++i) order_[i] = i;
    for (std::size_t i = kMeters - 1; i > 0; --i)
      std::swap(order_[i], order_[rng.uniform(0, i)]);
  }

  std::size_t step(StepLog& log) override {
    fleet::FleetClient& meter = *rig_.meters[order_[op_ % kMeters]];
    const std::int64_t start = now_ns();
    Status status = Status::success();
    {
      Scope span(tracer_, full_span_, op_);
      meter.disconnect();
      meter.clear_ticket();
      status = meter.connect();
    }
    const std::int64_t mid = now_ns();
    if (!status.ok() || meter.resumed() || !meter.has_ticket())
      log.fail("fleet_reconnect: full handshake did not grant a ticket");
    {
      Scope span(tracer_, resume_span_, op_);
      meter.disconnect();
      status = meter.connect();
    }
    const std::int64_t end = now_ns();
    if (!status.ok() || !meter.resumed())
      log.fail("fleet_reconnect: resume fell back to a full handshake");
    log.major(us_between(start, mid));
    log.minor(us_between(mid, end));
    log.op(us_between(start, end));
    ++op_;
    return 1;
  }

  Cycles sim_cycles() const override { return rig_.charged(); }

  void window_begin() override { window_ = rig_.snapshot(); }

  void window_end(std::size_t ops, Metrics& layer) override {
    FleetRig::window_counts(window_, rig_.snapshot(), ops, layer);
  }

  void span_metrics(const Tracer&, std::size_t, Metrics&) const override {}

  void finish(StepLog& log) override { rig_.check_accounting(log); }

 private:
  Tracer& tracer_;
  std::uint64_t op_ = 0;
  FleetRig rig_;
  std::uint32_t full_span_, resume_span_;
  std::array<std::size_t, kMeters> order_{};
  FleetSnapshot window_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_ingest(std::uint64_t seed,
                                            Tracer& tracer) {
  return std::make_unique<FleetIngest>(seed, tracer);
}

std::unique_ptr<Workload> make_fleet_reconnect(std::uint64_t seed,
                                               Tracer& tracer) {
  return std::make_unique<FleetReconnect>(seed, tracer);
}

}  // namespace perfbench
