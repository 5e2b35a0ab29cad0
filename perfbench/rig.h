// Machine, substrate and domain helpers shared by the workloads.
#pragma once

#include <memory>
#include <string>

#include "core/standard_registry.h"
#include "hw/machine.h"
#include "substrate/substrate.h"
#include "util/types.h"

namespace perfbench {

/// The vendor every simulated machine is manufactured by. Its keys are
/// platform, not workload input, so they do not depend on the seed.
inline lateral::hw::Vendor& vendor() {
  static lateral::hw::Vendor v(/*seed=*/0xBE7C4, /*key_bits=*/512);
  return v;
}

/// A machine with 1 MiB of DRAM: far more than any workload's domains use,
/// and small enough that building one (mail_session builds one per session)
/// does not spend its time zero-filling memory nobody touches.
inline std::unique_ptr<lateral::hw::Machine> make_machine(
    const std::string& name) {
  lateral::hw::MachineConfig config;
  config.name = name;
  config.dram_bytes = 1024 * 1024;
  return std::make_unique<lateral::hw::Machine>(config, vendor(),
                                                lateral::to_bytes("bench-rom"));
}

inline lateral::substrate::SubstrateRegistry& registry() {
  static lateral::substrate::SubstrateRegistry r =
      lateral::core::make_standard_registry();
  return r;
}

inline lateral::substrate::DomainSpec tc_spec(const std::string& name) {
  lateral::substrate::DomainSpec spec;
  spec.name = name;
  spec.kind = lateral::substrate::DomainKind::trusted_component;
  spec.image = {name, lateral::to_bytes("code:" + name)};
  spec.memory_pages = 2;
  return spec;
}

inline lateral::substrate::DomainSpec legacy_spec(const std::string& name) {
  auto spec = tc_spec(name);
  spec.kind = lateral::substrate::DomainKind::legacy;
  spec.memory_pages = 4;
  return spec;
}

}  // namespace perfbench
