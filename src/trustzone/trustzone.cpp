#include "trustzone/trustzone.h"

#include "crypto/hmac.h"

namespace lateral::trustzone {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

TrustZone::TrustZone(hw::Machine& machine, substrate::SubstrateConfig config,
                     TrustZoneOptions options)
    : IsolationSubstrate(machine, std::move(config)),
      options_(options),
      frames_(machine.dram()) {
  info_.name = "trustzone";
  info_.features = Feature::spatial_isolation | Feature::concurrent_domains |
                   Feature::legacy_hosting | Feature::sealed_storage |
                   Feature::attestation;
  // Monitor + secure-world OS (QSEE/Knox class systems are tens of kLoC).
  info_.tcb_loc = 35'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software};

  if (options_.hypervisor) {
    // The hypervisor joins the isolation substrate (paper §II-B) — and
    // "because of complex hardware emulation, virtualization solutions
    // actually expose a larger attack surface" (§II-C).
    info_.tcb_loc += 15'000;
  }
  if (options_.software_memory_encryption) {
    // Scratchpad-keyed software MEE: the §II-D construction. The keys are
    // derived from fuses and live on-die; DRAM only ever sees ciphertext.
    info_.features = info_.features | Feature::memory_encryption;
    info_.defends_against.push_back(AttackerModel::physical_bus);
    info_.tcb_loc += 2'000;
    Bytes fuse_key(machine_.fuses().device_key().begin(),
                   machine_.fuses().device_key().end());
    const Bytes material = crypto::hkdf(to_bytes("tz.swmee.v1"), fuse_key,
                                        to_bytes("enc+mac"), 48);
    sw_mee_key_ = crypto::Aes128(*crypto::key_from_bytes(material));
    sw_mee_mac_key_ = crypto::Hmac(BytesView(material).subspan(16));
  }
}

const substrate::SubstrateInfo& TrustZone::info() const { return info_; }

Status TrustZone::admit_domain(const substrate::DomainSpec& spec) const {
  // The normal world hosts exactly one legacy codebase; TrustZone itself
  // does not multiplex — a hypervisor does.
  if (spec.kind == DomainKind::legacy && legacy_count_ >= 1 &&
      !options_.hypervisor)
    return Errc::exhausted;
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Bytes TrustZone::sw_mee_crypt(hw::PhysAddr page_addr, std::uint64_t version,
                              BytesView data) const {
  const std::uint64_t nonce = page_addr ^ (version << 20) ^ (0x72ULL << 56);
  return crypto::aes128_ctr(sw_mee_key_, nonce, data);
}

crypto::Digest TrustZone::sw_mee_mac(hw::PhysAddr page_addr,
                                     std::uint64_t version,
                                     BytesView ciphertext) const {
  crypto::Hmac mac = sw_mee_mac_key_;
  std::uint8_t header[16];
  for (int i = 0; i < 8; ++i) {
    header[i] = static_cast<std::uint8_t>(page_addr >> (56 - 8 * i));
    header[8 + i] = static_cast<std::uint8_t>(version >> (56 - 8 * i));
  }
  mac.update(BytesView(header, sizeof(header)));
  mac.update(ciphertext);
  return mac.finish();
}

Status TrustZone::attach_memory(DomainId id, DomainRecord& record) {
  WorldSpace space;
  space.secure = record.spec.kind == DomainKind::trusted_component;
  space.frames.reserve(record.spec.memory_pages);
  for (std::size_t i = 0; i < record.spec.memory_pages; ++i) {
    auto frame = frames_.allocate(1);
    if (!frame) {
      for (const hw::PhysAddr f : space.frames) {
        (void)machine_.memory().set_page_owner(f, 0);
        (void)frames_.free(f, 1);
      }
      return frame.error();
    }
    if (space.secure) {
      // Program the TZASC: mark the page secure-world-only.
      if (const Status s = machine_.memory().set_page_owner(*frame, kSecureTag);
          !s.ok())
        return s;
    }
    space.frames.push_back(*frame);
  }

  const bool encrypted = space.secure && options_.software_memory_encryption;
  if (encrypted) {
    space.page_versions.assign(space.frames.size(), 0);
    space.page_macs.resize(space.frames.size());
  }

  Bytes code(record.spec.image.code);
  code.resize(space.frames.size() * hw::kPageSize, 0);
  for (std::size_t i = 0; i < space.frames.size(); ++i) {
    const BytesView page(code.data() + i * hw::kPageSize, hw::kPageSize);
    if (encrypted) {
      space.page_versions[i] = 1;
      const Bytes ct = sw_mee_crypt(space.frames[i], 1, page);
      space.page_macs[i] = sw_mee_mac(space.frames[i], 1, ct);
      machine_.memory().load(space.frames[i], ct);
      machine_.charge(0, machine_.costs().sw_aes_per_16_bytes, hw::kPageSize);
    } else {
      machine_.memory().load(space.frames[i], page);
    }
  }
  if (record.spec.kind == DomainKind::legacy) ++legacy_count_;
  spaces_.emplace(id, std::move(space));
  return Status::success();
}

void TrustZone::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = spaces_.find(id);
  if (it == spaces_.end()) return;
  if (!it->second.secure && legacy_count_ > 0) --legacy_count_;
  for (const hw::PhysAddr frame : it->second.frames) {
    (void)machine_.memory().set_page_owner(frame, 0);
    (void)frames_.free(frame, 1);
  }
  spaces_.erase(it);
}

Result<const TrustZone::WorldSpace*> TrustZone::space_of(DomainId id) const {
  const auto it = spaces_.find(id);
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (it == spaces_.end())
    return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
  return &it->second;
}

Result<TrustZone::WorldSpace*> TrustZone::space_of(DomainId id) {
  const auto it = spaces_.find(id);
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (it == spaces_.end())
    return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
  return &it->second;
}

Result<Bytes> TrustZone::read_page(const WorldSpace& space, std::size_t page,
                                   const hw::AccessContext& ctx) const {
  Bytes raw;
  if (const Status s = machine_.memory().read(ctx, space.frames[page],
                                              hw::kPageSize, raw);
      !s.ok())
    return s.error();
  if (space.page_versions.empty()) return raw;  // plaintext world

  const crypto::Digest expected =
      sw_mee_mac(space.frames[page], space.page_versions[page], raw);
  if (!ct_equal(crypto::digest_view(expected),
                crypto::digest_view(space.page_macs[page])))
    return Errc::tamper_detected;
  machine_.charge(0, machine_.costs().sw_aes_per_16_bytes, hw::kPageSize);
  return sw_mee_crypt(space.frames[page], space.page_versions[page], raw);
}

Status TrustZone::write_page(WorldSpace& space, std::size_t page,
                             BytesView content, const hw::AccessContext& ctx) {
  if (space.page_versions.empty())
    return machine_.memory().write(ctx, space.frames[page], content);
  const std::uint64_t version = ++space.page_versions[page];
  const Bytes ct = sw_mee_crypt(space.frames[page], version, content);
  space.page_macs[page] = sw_mee_mac(space.frames[page], version, ct);
  machine_.charge(0, machine_.costs().sw_aes_per_16_bytes, hw::kPageSize);
  return machine_.memory().write(ctx, space.frames[page], ct);
}

Result<Bytes> TrustZone::raw_domain_read(const WorldSpace& space,
                                         std::uint64_t offset, std::size_t len,
                                         const hw::AccessContext& ctx) const {
  if (offset + len > space.frames.size() * hw::kPageSize ||
      offset + len < offset)
    return Errc::access_denied;
  Bytes out;
  out.reserve(len);
  while (len > 0) {
    const std::size_t page = offset / hw::kPageSize;
    const std::size_t in_page = offset % hw::kPageSize;
    const std::size_t n = std::min(len, hw::kPageSize - in_page);
    auto content = read_page(space, page, ctx);
    if (!content) return content.error();
    out.insert(out.end(), content->begin() + static_cast<long>(in_page),
               content->begin() + static_cast<long>(in_page + n));
    offset += n;
    len -= n;
  }
  return out;
}

Result<Bytes> TrustZone::read_memory(DomainId actor, DomainId target,
                                     std::uint64_t offset, std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();

  const bool actor_secure = (*actor_space)->secure;
  const bool target_secure = (*target_space)->secure;

  if (actor != target) {
    // Asymmetry of the worlds: secure may inspect normal ("the secure world
    // completely controls the normal world"); normal may never touch secure.
    if (!actor_secure) return Errc::access_denied;
    if (target_secure && options_.secure_world_isolation)
      return Errc::access_denied;  // secure OS isolates its trustlets
  }

  machine_.charge(actor_secure ? 0 : machine_.costs().syscall,
                  machine_.costs().memcpy_per_16_bytes, len);
  const hw::AccessContext ctx{
      actor_secure ? hw::SecurityState::secure : hw::SecurityState::non_secure,
      actor_secure ? kSecureTag : 0};
  return raw_domain_read(**target_space, offset, len, ctx);
}

Status TrustZone::write_memory(DomainId actor, DomainId target,
                               std::uint64_t offset, BytesView data) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();

  const bool actor_secure = (*actor_space)->secure;
  const bool target_secure = (*target_space)->secure;
  if (actor != target) {
    if (!actor_secure) return Errc::access_denied;
    if (target_secure && options_.secure_world_isolation)
      return Errc::access_denied;
  }
  WorldSpace& space = **target_space;
  if (offset + data.size() > space.frames.size() * hw::kPageSize ||
      offset + data.size() < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  const hw::AccessContext ctx{
      actor_secure ? hw::SecurityState::secure : hw::SecurityState::non_secure,
      actor_secure ? kSecureTag : 0};
  // Read-modify-write at page granularity (required once pages may be
  // encrypted; harmless otherwise).
  std::uint64_t cursor = offset;
  while (!data.empty()) {
    const std::size_t page = cursor / hw::kPageSize;
    const std::size_t in_page = cursor % hw::kPageSize;
    const std::size_t n = std::min(data.size(), hw::kPageSize - in_page);
    auto content = read_page(space, page, ctx);
    if (!content) return content.error();
    std::copy(data.begin(), data.begin() + static_cast<long>(n),
              content->begin() + static_cast<long>(in_page));
    if (const Status s = write_page(space, page, *content, ctx); !s.ok())
      return s;
    data = data.subspan(n);
    cursor += n;
  }
  return Status::success();
}

Result<substrate::Quote> TrustZone::attest(DomainId actor,
                                           BytesView user_data) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->secure) return Errc::access_denied;  // fused key is secure-only
  return IsolationSubstrate::attest(actor, user_data);
}

Result<Bytes> TrustZone::seal(DomainId actor, BytesView plaintext) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->secure) return Errc::access_denied;
  return IsolationSubstrate::seal(actor, plaintext);
}

Result<Bytes> TrustZone::unseal(DomainId actor, BytesView sealed) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->secure) return Errc::access_denied;
  return IsolationSubstrate::unseal(actor, sealed);
}

Result<crypto::Digest> TrustZone::measure_normal_world(DomainId actor) {
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  if (!(*actor_space)->secure) return Errc::access_denied;

  crypto::Sha256 ctx;
  bool found = false;
  for (const auto& [id, space] : spaces_) {
    if (space.secure) continue;
    found = true;
    const hw::AccessContext access{hw::SecurityState::secure, kSecureTag};
    auto content = raw_domain_read(space, 0,
                                   space.frames.size() * hw::kPageSize, access);
    if (!content) return content.error();
    machine_.charge(0, machine_.costs().sw_sha_per_64_bytes / 4,
                    content->size());
    ctx.update(*content);
  }
  if (!found) return Errc::no_such_domain;
  return ctx.finish();
}

Result<bool> TrustZone::is_secure_world(DomainId domain) const {
  auto space = space_of(domain);
  if (!space) return space.error();
  return (*space)->secure;
}

Result<std::vector<hw::PhysAddr>> TrustZone::domain_frames(
    DomainId domain) const {
  auto space = space_of(domain);
  if (!space) return space.error();
  return (*space)->frames;
}

Cycles TrustZone::message_cost(std::size_t len) const {
  // Every cross-world message pays an SMC world switch plus the secure-world
  // OS dispatch; payload copy comes on top. Under a hypervisor, normal-world
  // traffic additionally traps into the VMM (one exit per message).
  Cycles cost = machine_.costs().smc_world_switch +
                machine_.costs().tz_secure_os_dispatch +
                machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
  if (options_.hypervisor) cost += machine_.costs().context_switch * 2;
  return cost;
}

substrate::ConcurrencyLaw TrustZone::concurrency_law() const {
  // There is ONE secure world: every SMC funnels through the single
  // monitor/secure-OS instance, which takes its big lock for the whole
  // dispatch (paper §II-B — the architecture, not the workload, caps
  // scaling). Whole crossings serialize.
  return substrate::ConcurrencyLaw::monitor_serialized;
}

Cycles TrustZone::attest_cost() const {
  return machine_.costs().smc_world_switch * 2;
}

Cycles TrustZone::region_map_cost(std::size_t pages) const {
  // One SMC to have the monitor carve the NS buffer and program the TZASC,
  // plus a page-table write per page on the mapping world's side. The
  // crossing toll is paid once here, never per access.
  return machine_.costs().smc_world_switch +
         machine_.costs().tz_secure_os_dispatch +
         machine_.costs().page_table_update * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "trustzone",
      [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<TrustZone>(machine, config);
      });
}

}  // namespace lateral::trustzone
