// The simulated machine: clock, physical memory, fuse bank, boot ROM.
//
// A Machine is the unit a substrate is instantiated on. Distributed
// scenarios (smart meter <-> utility server) create several machines and
// connect them through net::SimNetwork.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "hw/cost_model.h"
#include "hw/memory.h"
#include "util/types.h"

namespace lateral::hw {

/// Keys fused into the silicon at manufacturing time. Only reachable by
/// substrate code holding a SecurityState::secure / on-die execution
/// context — the substrates gate access; the bank itself is on-chip.
class FuseBank {
 public:
  FuseBank(crypto::Aes128Key device_key, crypto::RsaKeyPair endorsement_key,
           Bytes endorsement_cert);

  /// Per-device symmetric key (TrustZone-style fused AES key).
  const crypto::Aes128Key& device_key() const { return device_key_; }

  /// Device endorsement key pair (TPM EK / SGX provisioning-key analogue).
  const crypto::RsaKeyPair& endorsement_key() const { return endorsement_key_; }

  /// Vendor signature over the endorsement public key: the root of every
  /// attestation chain.
  BytesView endorsement_cert() const { return endorsement_cert_; }

 private:
  crypto::Aes128Key device_key_;
  crypto::RsaKeyPair endorsement_key_;
  Bytes endorsement_cert_;
};

/// Immutable first-stage boot code with its measurement. The trust anchor
/// for secure/authenticated boot: its hash cannot change after manufacture.
class BootRom {
 public:
  explicit BootRom(Bytes image);
  BytesView image() const { return image_; }
  const crypto::Digest& measurement() const { return measurement_; }

 private:
  Bytes image_;
  crypto::Digest measurement_;
};

/// Hardware vendor: owns the root signing key and endorses device fuses.
/// One Vendor typically signs many machines (like Intel or a TPM CA).
class Vendor {
 public:
  explicit Vendor(std::uint64_t seed, std::size_t key_bits = 1024);

  const crypto::RsaPublicKey& root_public_key() const { return root_.pub; }

  /// Manufacture a fuse bank: generate device keys and sign the endorsement.
  FuseBank manufacture_fuses();

 private:
  crypto::RsaKeyPair root_;
  std::unique_ptr<crypto::HmacDrbg> drbg_;
};

struct MachineConfig {
  std::string name = "machine";
  std::size_t dram_bytes = 16 * 1024 * 1024;
  std::size_t sram_bytes = 256 * 1024;  // on-chip scratchpad
  std::size_t cores = 1;                // symmetric cores, one clock each
};

class Machine {
 public:
  /// Builds memory with three standard regions:
  ///   "rom"  (on-chip, read-only), "sram" (on-chip), "dram" (off-chip).
  Machine(MachineConfig config, Vendor& vendor, Bytes boot_rom_image);

  const std::string& name() const { return config_.name; }

  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }

  const FuseBank& fuses() const { return fuses_; }
  const BootRom& boot_rom() const { return boot_rom_; }
  const CostModel& costs() const { return costs_; }

  /// DRAM range available for substrate use.
  Range dram() const { return dram_; }
  Range sram() const { return sram_; }

  /// Global simulated epoch: the max over all core clocks. With one core
  /// this is exactly the old single-clock machine.
  Cycles now() const {
    Cycles max = 0;
    for (const Cycles c : clocks_)
      if (c > max) max = c;
    return max;
  }

  /// Per-core cycle accounting.
  std::size_t core_count() const { return clocks_.size(); }
  Cycles core(std::size_t i) const { return clocks_[i]; }

  /// The core that subsequent advance()/charge() calls account against.
  /// Prefer the RAII CoreLease over calling this directly.
  std::size_t active_core() const { return active_core_; }
  void set_active_core(std::size_t i) {
    active_core_ = (i < clocks_.size()) ? i : 0;
  }

  void advance(Cycles cycles) { clocks_[active_core_] += cycles; }

  /// Charge a data-dependent cost: base + per_16B * ceil(len/16).
  void charge(Cycles base, Cycles per_16_bytes, std::size_t len) {
    clocks_[active_core_] += base + per_16_bytes * ((len + 15) / 16);
  }

  /// Spin the active core forward to a gate another core holds (a shared
  /// monitor, a single-threaded device). No-op if the core is already past.
  void stall_until(Cycles gate) {
    if (clocks_[active_core_] < gate) clocks_[active_core_] = gate;
  }

  /// Record a bus-visible touch of a shared resource (channel id, region
  /// cache line). If a *different* core touched the same resource within
  /// costs().contention_window simulated cycles, the active core pays
  /// bus_contention_penalty. Returns the penalty charged (0 on a single
  /// core, so N=1 runs are bit-exact with the old machine).
  Cycles note_shared_access(std::uint64_t resource);

  /// Total contention penalties charged so far (all cores).
  std::uint64_t contention_events() const { return contention_events_; }

  /// On-chip monotonic counter (TPM NV counter analogue). Trusted wrappers
  /// use it to detect rollback of sealed state: a physical attacker can
  /// replay old DRAM/disk content but cannot decrement this counter.
  std::uint64_t nv_counter() const { return nv_counter_; }
  std::uint64_t nv_counter_increment() { return ++nv_counter_; }

 private:
  struct Touch {
    std::size_t core = 0;
    Cycles stamp = 0;
  };

  MachineConfig config_;
  CostModel costs_;
  PhysicalMemory memory_;
  FuseBank fuses_;
  BootRom boot_rom_;
  Range dram_{};
  Range sram_{};
  std::vector<Cycles> clocks_;
  std::size_t active_core_ = 0;
  std::unordered_map<std::uint64_t, Touch> touches_;
  std::uint64_t contention_events_ = 0;
  std::uint64_t nv_counter_ = 0;
};

/// Scoped "this work runs on core i": sets the machine's active core and
/// restores the previous one on destruction. Code driving a shard takes a
/// lease around that shard's work (bench_fig13 does, per shard), so its
/// crossings accrue to that core's clock.
class CoreLease {
 public:
  CoreLease(Machine& machine, std::size_t core)
      : machine_(machine), prev_(machine.active_core()) {
    machine_.set_active_core(core);
  }
  ~CoreLease() { machine_.set_active_core(prev_); }
  CoreLease(const CoreLease&) = delete;
  CoreLease& operator=(const CoreLease&) = delete;

 private:
  Machine& machine_;
  std::size_t prev_;
};

}  // namespace lateral::hw
