#include "catalog.h"

namespace perfbench {

const std::vector<std::string>& backends() {
  static const std::vector<std::string> names = {
      "microkernel", "noc", "cheri", "trustzone",
      "ftpm",        "sgx", "sep",   "tpm"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"op_p99_us", "us"},
      {"major_op_p50_us", "us"},
      {"minor_op_p50_us", "us"},
      {"minor_op_p99_us", "us"},
      {"sim_cycles_per_op", "cycles"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out;
    for (const std::string& b : backends()) {
      out.push_back({"substrate.call_ns." + b, "ns"});
      out.push_back({"substrate.call_sg_ns." + b, "ns"});
      out.push_back({"substrate.sim_cycles_per_call." + b, "cycles"});
    }
    const std::vector<MetricSpec> rest = {
        {"substrate.allocs_per_call", "count"},
        {"runtime.cq_submit_ns", "ns"},
        {"runtime.cq_doorbell_ns", "ns"},
        {"runtime.cq_reap_ns", "ns"},
        {"runtime.ns_per_invocation", "ns"},
        {"runtime.allocs_per_invocation", "count"},
        {"runtime.doorbells_per_op", "count"},
        {"runtime.crossing_cycles_per_op", "cycles"},
        {"fleet.client_submit_us", "us"},
        {"fleet.server_pump_us_per_reading", "us"},
        {"fleet.client_collect_us", "us"},
        {"fleet.handler_self_us", "us"},
        {"fleet.allocs_per_op", "count"},
        {"net.datagrams_per_op", "count"},
        {"net.wire_bytes_per_op", "bytes"},
        {"fleet.verify_cache_hits", "count"},
        {"fleet.verify_cache_misses", "count"},
        {"fleet.tickets_issued", "count"},
        {"fleet.tickets_rejected", "count"},
        {"crypto.rsa_sign_us", "us"},
        {"crypto.rsa_verify_us", "us"},
        {"crypto.dh_us", "us"},
        {"crypto.aead_seal_ns_64B", "ns"},
        {"crypto.aead_open_ns_64B", "ns"},
        {"crypto.hmac_ns_64B", "ns"},
        {"crypto.aes_ctr_MBps", "MB/s"},
        {"crypto.sha256_MBps", "MB/s"},
        {"mail.sync_inbox_ms", "ms"},
        {"mail.read_mail_us", "us"},
        {"mail.search_ms", "ms"},
        {"mail.compose_us", "us"},
        {"mail.allocs_per_op", "count"},
        {"mail.ui_storage.batches", "count"},
        {"mail.ui_storage.zero_copy_bytes", "bytes"},
        {"mail.ui_imap.batches", "count"},
        {"core.assemble_ms", "ms"},
        {"trace.untraced_us_per_op", "us"},
        {"trace.traced_us_per_op", "us"},
        {"trace.span_self_us_per_op", "us"},
        {"trace.overhead_pct", "%"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return specs;
}

}  // namespace perfbench
