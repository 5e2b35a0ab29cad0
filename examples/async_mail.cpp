// async_mail — the MailClient fetch path on the batching runtime, end to
// end across the network.
//
// The provider's mailbox sits behind an SGX "mailgate" component on a
// remote machine. The laptop verifies the gate's code identity during the
// SecureChannel handshake (so it speaks IMAP only to the audited build),
// then pipelines all FETCHes through runtime::AsyncRemoteProxy: N requests,
// one sealed burst, one network exchange, replies matched by request id.
// The fetched messages land in the local decomposed MailClient through a
// runtime::CompletionQueue on the manifest-declared ui->storage wire — one
// boundary crossing for the whole batch — and are rendered by the isolated
// renderer as usual. Every hop is the trustworthy path from the paper; the
// runtime only changes how often its tolls are paid.
#include <cstdio>
#include <string>
#include <vector>

#include "core/attestation.h"
#include "core/composer.h"
#include "core/standard_registry.h"
#include "legacy/filesystem.h"
#include "mail/client.h"
#include "mail/imap.h"
#include "microkernel/microkernel.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "runtime/async_proxy.h"
#include "runtime/completion_queue.h"

using namespace lateral;

int main() {
  hw::Vendor vendor(/*seed=*/7);

  // --- Provider side: mailbox behind an SGX mail gate ----------------------
  mail::ImapServer provider("alice", "token123");
  for (int i = 0; i < 6; ++i)
    (void)provider.deliver(
        "INBOX",
        mail::make_message("bob@example", "alice@example",
                           "Update " + std::to_string(i),
                           "<p>News item <b>" + std::to_string(i) + "</b></p>"));

  auto registry = core::make_standard_registry();
  hw::Machine server_machine(hw::MachineConfig{.name = "provider"}, vendor,
                             to_bytes("provider-rom"));
  auto sgx = *registry.create("sgx", server_machine);
  substrate::DomainSpec gate_spec;
  gate_spec.name = "mailgate";
  gate_spec.kind = substrate::DomainKind::trusted_component;
  gate_spec.image = {"mailgate", to_bytes("code:mailgate")};
  gate_spec.memory_pages = 2;
  auto mailgate = *sgx->create_domain(gate_spec);

  // --- Laptop side: decomposed mail client + gate verifier -----------------
  hw::Machine laptop(hw::MachineConfig{.name = "laptop"}, vendor,
                     to_bytes("laptop-rom"));
  microkernel::Microkernel kernel(laptop, substrate::SubstrateConfig{});
  legacy::LegacyFilesystem disk;
  auto client = mail::MailClient::create({.substrate = &kernel,
                                          .disk = &disk,
                                          .server = &provider,
                                          .vpfs_seed = to_bytes("mail-keys")});
  if (!client) {
    std::printf("client composition failed\n");
    return 1;
  }

  core::AttestationVerifier verifier(to_bytes("laptop-verifier"));
  verifier.add_trusted_root(vendor.root_public_key());
  verifier.expect_measurement("mailgate", gate_spec.image.measurement());

  // --- Attested handshake over the hostile network -------------------------
  net::SimNetwork network;
  (void)network.register_endpoint("laptop");
  (void)network.register_endpoint("provider");

  net::SecureChannelEndpoint laptop_chan(
      net::Role::initiator, to_bytes("laptop-seed"), std::nullopt,
      net::VerifierConfig{&verifier, "mailgate"});
  net::SecureChannelEndpoint gate_chan(
      net::Role::responder, to_bytes("gate-seed"),
      net::ProverConfig{sgx.get(), mailgate}, std::nullopt);

  auto msg1 = laptop_chan.start();
  (void)network.send("laptop", "provider", *msg1);
  auto msg2 = gate_chan.handle_msg1(network.receive("provider")->payload);
  (void)network.send("provider", "laptop", *msg2);
  auto msg3 = laptop_chan.handle_msg2(network.receive("laptop")->payload);
  (void)network.send("laptop", "provider", *msg3);
  if (!gate_chan.handle_msg3(network.receive("provider")->payload).ok() ||
      !laptop_chan.established()) {
    std::printf("handshake failed\n");
    return 1;
  }
  std::printf("attested channel up: laptop verified the mailgate build\n");

  // --- The async RPC plumbing ----------------------------------------------
  runtime::AsyncRemoteDispatcher gate(gate_chan);
  (void)gate.register_method("imap", [&provider](BytesView line)
                                         -> Result<Bytes> {
    return to_bytes(provider.handle(to_string(line)));
  });

  runtime::AsyncRemoteProxy proxy(
      laptop_chan,
      [&](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        for (const Bytes& record : records)
          if (const Status s = network.send("laptop", "provider", record);
              !s.ok())
            return s.error();
        std::vector<Bytes> burst;
        while (auto datagram = network.receive("provider"))
          burst.push_back(std::move(datagram->payload));
        auto replies = gate.handle_burst(burst);
        if (!replies) return replies.error();
        for (const Bytes& record : *replies)
          if (const Status s = network.send("provider", "laptop", record);
              !s.ok())
            return s.error();
        std::vector<Bytes> out;
        while (auto datagram = network.receive("laptop"))
          out.push_back(std::move(datagram->payload));
        return out;
      },
      {.depth = 32, .hub = nullptr, .label = {}});

  // --- Login + select (sequential), then the pipelined fetch ---------------
  // One burst per command: SELECT must not run before LOGIN has answered.
  const auto command = [&proxy](const char* line) -> Result<Bytes> {
    if (auto id = proxy.submit("imap", to_bytes(line)); !id) return id.error();
    if (const Status s = proxy.flush(); !s.ok()) return s.error();
    std::vector<runtime::CqEvent> events = proxy.reap();
    if (events.size() != 1) return Errc::io_error;
    if (!events[0].ok()) return events[0].status;
    return std::move(events[0].payload);
  };
  auto login = command("LOGIN alice token123");
  auto selected = command("SELECT INBOX");
  if (!login || !selected) {
    std::printf("login failed\n");
    return 1;
  }
  std::printf("provider: %s -> %zu message(s) remote\n",
              to_string(*selected).c_str(), std::size_t{6});

  const std::uint64_t bursts_before = proxy.metrics().batches;
  std::vector<runtime::RequestId> fetch_ids;
  for (int i = 0; i < 6; ++i)
    fetch_ids.push_back(
        *proxy.submit("imap", to_bytes("FETCH " + std::to_string(i))));
  if (!proxy.flush().ok()) {
    std::printf("pipelined fetch failed\n");
    return 1;
  }
  std::printf("pipelined %zu FETCHes in %llu sealed burst(s)\n",
              fetch_ids.size(),
              static_cast<unsigned long long>(proxy.metrics().batches -
                                              bursts_before));

  // --- Batched store into the isolated storage component -------------------
  mail::MailClient& mc = **client;
  auto storage_ep = mc.assembly().endpoint("ui", "storage");
  runtime::CompletionQueue stores(*storage_ep,
                                 {.depth = 16,
                                  .adaptive = {},
                                  .hub = &mc.runtime_metrics(),
                                  .label = "ui->storage"});
  // reap() hands the fetch replies back oldest request id first, i.e. in
  // FETCH order.
  for (const runtime::CqEvent& fetch : proxy.reap()) {
    if (!fetch.ok()) return 1;
    const std::string line = to_string(fetch.payload);  // "OK\n<message wire>"
    if (line.rfind("OK\n", 0) != 0) return 1;
    if (!stores.submit(to_bytes("STORE INBOX\n" + line.substr(3)))) return 1;
  }
  if (!stores.doorbell().ok()) return 1;
  auto stored = stores.reap();
  if (!stored) return 1;
  for (const runtime::CqEvent& store : *stored)
    if (!store.ok()) return 1;
  std::printf("stored %zu message(s) through one ui->storage crossing\n",
              stored->size());

  // --- Use the mail as usual -------------------------------------------------
  auto display = mc.read_mail(0);
  std::printf("reading mail 0:\n  %s\n", display ? display->c_str() : "FAILED");

  const runtime::InvocationCounters& store_metrics = stores.metrics();
  std::printf("\n--- runtime metrics ---\n");
  std::printf("network: %llu request(s), %llu burst(s), depth hwm %llu\n",
              static_cast<unsigned long long>(proxy.metrics().submitted),
              static_cast<unsigned long long>(proxy.metrics().batches),
              static_cast<unsigned long long>(proxy.metrics().queue_depth_hwm));
  std::printf("ui->storage: %llu call(s), crossing cycles %llu vs sync %llu "
              "(saved %llu)\n",
              static_cast<unsigned long long>(store_metrics.completed),
              static_cast<unsigned long long>(store_metrics.crossing_cycles),
              static_cast<unsigned long long>(
                  store_metrics.sync_equivalent_cycles),
              static_cast<unsigned long long>(store_metrics.cycles_saved()));
  return 0;
}
