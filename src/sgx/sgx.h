// Intel SGX isolation substrate (paper §II-B "Intel SGX").
//
// Reproduced structure:
//  * independent trusted components run *concurrently* in fully isolated
//    enclaves; the (untrusted) OS schedules them like threads;
//  * enclave memory is tagged EPC: software outside the enclave cannot
//    read or write it (the access check happens in the memory system);
//  * the memory-encryption engine (MEE) encrypts and integrity-protects
//    enclave pages whenever they are resident in off-chip DRAM — a physical
//    bus attacker sees only ciphertext, and tampering is detected on the
//    next read (per-page version counters + MAC, our stand-in for the MEE
//    integrity tree);
//  * enclaves may access the untrusted host's memory (how Haven-style
//    trusted reuse of the legacy OS works), but never other enclaves';
//  * remote attestation goes through a quoting-enclave round trip;
//  * ECALL/EENTER round trips are expensive relative to microkernel IPC.
//
// The paper's caveat that SGX "suffers from ... cache side-channel attacks"
// is modelled by side_channel_leak(): a co-resident local attacker can
// recover a fraction of enclave-internal state bits despite the isolation
// (used by the fig6 ablation).
#pragma once

#include <map>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "substrate/registry.h"
#include "substrate/substrate.h"

namespace lateral::sgx {

class Sgx final : public substrate::IsolationSubstrate {
 public:
  Sgx(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  Result<Bytes> read_memory(substrate::DomainId actor,
                            substrate::DomainId target, std::uint64_t offset,
                            std::size_t len) override;
  Status write_memory(substrate::DomainId actor, substrate::DomainId target,
                      std::uint64_t offset, BytesView data) override;

  /// Remote attestation via the quoting enclave (extra local-report and
  /// enclave-crossing costs); enclaves only.
  Result<substrate::Quote> attest(substrate::DomainId actor,
                                  BytesView user_data) override;

  // --- Local attestation (EREPORT/report keys) ------------------------------
  /// A MAC-authenticated report one enclave creates FOR another on the
  /// same machine. Only the target (whose report key the MAC uses) can
  /// verify it — no signatures, no quoting enclave, orders of magnitude
  /// cheaper than remote attestation.
  struct LocalReport {
    crypto::Digest source_measurement{};
    crypto::Digest target_measurement{};
    Bytes user_data;
    crypto::Digest mac{};
  };

  /// EREPORT: `source` attests itself to `target` (both enclaves here).
  Result<LocalReport> ereport(substrate::DomainId source,
                              substrate::DomainId target, BytesView user_data);

  /// The target enclave verifies a report addressed to it. Errc::
  /// verification_failed for forged/tampered/misaddressed reports.
  Status verify_report(substrate::DomainId verifier,
                       const LocalReport& report);

  Result<std::vector<hw::PhysAddr>> domain_frames(
      substrate::DomainId domain) const;

  /// Cache side channel: a local-software attacker observing an enclave
  /// recovers `leak_fraction` of the requested bytes (deterministic stride).
  /// Returns the partially-recovered buffer with unknown bytes zeroed.
  Result<Bytes> side_channel_leak(substrate::DomainId enclave,
                                  std::uint64_t offset, std::size_t len,
                                  double leak_fraction) const;

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  Status attach_memory(substrate::DomainId id, DomainRecord& record) override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Regions are untrusted buffers *outside* the EPC (the standard SGX
  /// zero-copy idiom): the enclave reaches them directly, so accesses pay
  /// no EENTER/EEXIT and no MEE crypt — establishing the mapping pays one
  /// enclave round trip.
  Cycles region_map_cost(std::size_t pages) const override;

 private:
  struct EnclaveSpace {
    bool enclave = false;  // false => untrusted host domain
    std::vector<hw::PhysAddr> frames;
    /// Per-page write counters (freshness) and MACs (integrity), held
    /// on-die by the real MEE.
    std::vector<std::uint64_t> page_versions;
    std::vector<crypto::Digest> page_macs;
  };

  static constexpr std::uint64_t kEpcTagBase = 0xE9C0'0000'0000ULL;

  Result<const EnclaveSpace*> space_of(substrate::DomainId id) const;
  Result<EnclaveSpace*> space_of(substrate::DomainId id);

  /// MEE transforms for one page.
  Bytes mee_encrypt(hw::PhysAddr page_addr, std::uint64_t version,
                    BytesView plaintext) const;
  Bytes mee_decrypt(hw::PhysAddr page_addr, std::uint64_t version,
                    BytesView ciphertext) const;
  crypto::Digest mee_mac(hw::PhysAddr page_addr, std::uint64_t version,
                         BytesView ciphertext) const;

  Result<Bytes> read_page(const EnclaveSpace& space, std::size_t page) const;
  Status write_page(EnclaveSpace& space, std::size_t page, BytesView content);

  substrate::SubstrateInfo info_;
  hw::FrameAllocator frames_;
  std::map<substrate::DomainId, EnclaveSpace> spaces_;
  crypto::Aes128 mee_key_{crypto::Aes128Key{}};
  crypto::Hmac mee_mac_key_{BytesView{}};
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::sgx
