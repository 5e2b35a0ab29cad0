// Apple SEP-style coprocessor substrate (paper §II-B "Apple Secure Enclave
// Processor").
//
// Reproduced structure:
//  * a separate security processor next to the application CPU — "strong
//    isolation with reduced side channel opportunities compared to
//    shared-hardware solutions", "essentially an on-device HSM";
//  * inflexible: exactly TWO separated execution environments — one legacy
//    domain (the application-processor world) and one trusted component
//    (the SEP firmware/services);
//  * the SEP "accesses DRAM with inline encryption": its memory is
//    AES-encrypted + MACed whenever resident off-chip, so the physical bus
//    attacker sees ciphertext;
//  * all interaction crosses a mailbox bus: invocation cost sits between
//    microkernel IPC and a TPM command;
//  * biometric/key material never crosses to the application processor.
#pragma once

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "substrate/registry.h"
#include "substrate/substrate.h"

namespace lateral::sep {

class Sep final : public substrate::IsolationSubstrate {
 public:
  Sep(hw::Machine& machine, substrate::SubstrateConfig config);

  const substrate::SubstrateInfo& info() const override;

  Result<Bytes> read_memory(substrate::DomainId actor,
                            substrate::DomainId target, std::uint64_t offset,
                            std::size_t len) override;
  Status write_memory(substrate::DomainId actor, substrate::DomainId target,
                      std::uint64_t offset, BytesView data) override;

  /// Only the SEP side can attest/seal; the application processor has no
  /// access to the fused keys.
  Result<substrate::Quote> attest(substrate::DomainId actor,
                                  BytesView user_data) override;
  Result<Bytes> seal(substrate::DomainId actor, BytesView plaintext) override;
  Result<Bytes> unseal(substrate::DomainId actor, BytesView sealed) override;

  Result<std::vector<hw::PhysAddr>> domain_frames(
      substrate::DomainId domain) const;

 protected:
  Status admit_domain(const substrate::DomainSpec& spec) const override;
  Status attach_memory(substrate::DomainId id, DomainRecord& record) override;
  void release_memory(substrate::DomainId id, DomainRecord& record) override;
  Cycles message_cost(std::size_t len) const override;
  substrate::ConcurrencyLaw concurrency_law() const override;
  Cycles attest_cost() const override;
  /// Regions are a DMA window between the application processor and the
  /// coprocessor: the mailbox programs the window once; the SEP's inline
  /// engine then moves bytes without a mailbox round trip per access.
  Cycles region_map_cost(std::size_t pages) const override;

 private:
  struct SepSpace {
    bool sep_side = false;  // true => runs on the coprocessor
    std::vector<hw::PhysAddr> frames;
    std::vector<std::uint64_t> page_versions;
    std::vector<crypto::Digest> page_macs;
  };

  static constexpr std::uint64_t kSepTag = 0x5E90'0001;

  Result<const SepSpace*> space_of(substrate::DomainId id) const;
  Result<SepSpace*> space_of(substrate::DomainId id);

  Bytes inline_crypt(hw::PhysAddr page_addr, std::uint64_t version,
                     BytesView data) const;
  crypto::Digest inline_mac(hw::PhysAddr page_addr, std::uint64_t version,
                            BytesView ciphertext) const;
  Result<Bytes> read_page(const SepSpace& space, std::size_t page) const;
  Status write_page(SepSpace& space, std::size_t page, BytesView content);

  substrate::SubstrateInfo info_;
  hw::FrameAllocator frames_;
  std::map<substrate::DomainId, SepSpace> spaces_;
  std::size_t trusted_count_ = 0;
  std::size_t legacy_count_ = 0;
  crypto::Aes128 inline_key_{crypto::Aes128Key{}};
  crypto::Hmac inline_mac_key_{BytesView{}};
};

Status register_factory(substrate::SubstrateRegistry& registry);

}  // namespace lateral::sep
