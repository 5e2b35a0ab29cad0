#include "sep/sep.h"

#include "crypto/hmac.h"

namespace lateral::sep {

using substrate::AttackerModel;
using substrate::DomainId;
using substrate::DomainKind;
using substrate::Feature;

Sep::Sep(hw::Machine& machine, substrate::SubstrateConfig config)
    : IsolationSubstrate(machine, std::move(config)), frames_(machine.dram()) {
  info_.name = "sep";
  info_.features = Feature::spatial_isolation | Feature::legacy_hosting |
                   Feature::memory_encryption | Feature::sealed_storage |
                   Feature::attestation;
  // An L4-family kernel plus SEP services firmware.
  info_.tcb_loc = 25'000;
  info_.defends_against = {AttackerModel::remote_network,
                           AttackerModel::local_software,
                           AttackerModel::physical_bus};

  Bytes fuse_key(machine_.fuses().device_key().begin(),
                 machine_.fuses().device_key().end());
  const Bytes material = crypto::hkdf(to_bytes("sep.inline.v1"), fuse_key,
                                      to_bytes("enc+mac"), 48);
  inline_key_ = crypto::Aes128(*crypto::key_from_bytes(material));
  inline_mac_key_ = crypto::Hmac(BytesView(material).subspan(16));
}

const substrate::SubstrateInfo& Sep::info() const { return info_; }

Status Sep::admit_domain(const substrate::DomainSpec& spec) const {
  // "Inflexible and offers only two separated execution environments."
  if (spec.kind == DomainKind::trusted_component && trusted_count_ >= 1)
    return Errc::exhausted;
  if (spec.kind == DomainKind::legacy && legacy_count_ >= 1)
    return Errc::exhausted;
  if (spec.memory_pages == 0) return Errc::invalid_argument;
  return Status::success();
}

Bytes Sep::inline_crypt(hw::PhysAddr page_addr, std::uint64_t version,
                        BytesView data) const {
  const std::uint64_t nonce = page_addr ^ (version << 20) ^ 0x5E90ULL << 48;
  return crypto::aes128_ctr(inline_key_, nonce, data);
}

crypto::Digest Sep::inline_mac(hw::PhysAddr page_addr, std::uint64_t version,
                               BytesView ciphertext) const {
  crypto::Hmac mac = inline_mac_key_;
  std::uint8_t header[16];
  for (int i = 0; i < 8; ++i) {
    header[i] = static_cast<std::uint8_t>(page_addr >> (56 - 8 * i));
    header[8 + i] = static_cast<std::uint8_t>(version >> (56 - 8 * i));
  }
  mac.update(BytesView(header, sizeof(header)));
  mac.update(ciphertext);
  return mac.finish();
}

Status Sep::attach_memory(DomainId id, DomainRecord& record) {
  SepSpace space;
  space.sep_side = record.spec.kind == DomainKind::trusted_component;
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
    if (space.sep_side) {
      if (const Status s = machine_.memory().set_page_owner(*frame, kSepTag);
          !s.ok())
        return s;
    }
    space.frames.push_back(*frame);
  }
  space.page_versions.assign(space.frames.size(), 0);
  space.page_macs.resize(space.frames.size());

  Bytes code(record.spec.image.code);
  code.resize(space.frames.size() * hw::kPageSize, 0);
  for (std::size_t i = 0; i < space.frames.size(); ++i) {
    const BytesView page(code.data() + i * hw::kPageSize, hw::kPageSize);
    if (space.sep_side) {
      space.page_versions[i] = 1;
      const Bytes ct = inline_crypt(space.frames[i], 1, page);
      space.page_macs[i] = inline_mac(space.frames[i], 1, ct);
      machine_.memory().load(space.frames[i], ct);
      machine_.charge(0, machine_.costs().sep_inline_crypt_per_16_bytes,
                      hw::kPageSize);
    } else {
      machine_.memory().load(space.frames[i], page);
    }
  }
  if (space.sep_side)
    ++trusted_count_;
  else
    ++legacy_count_;
  spaces_.emplace(id, std::move(space));
  return Status::success();
}

void Sep::release_memory(DomainId id, DomainRecord& record) {
  (void)record;
  const auto it = spaces_.find(id);
  if (it == spaces_.end()) return;
  if (it->second.sep_side) {
    if (trusted_count_ > 0) --trusted_count_;
  } else if (legacy_count_ > 0) {
    --legacy_count_;
  }
  for (const hw::PhysAddr frame : it->second.frames) {
    (void)machine_.memory().set_page_owner(frame, 0);
    (void)frames_.free(frame, 1);
  }
  spaces_.erase(it);
}

Result<const Sep::SepSpace*> Sep::space_of(DomainId id) const {
  const auto it = spaces_.find(id);
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (it == spaces_.end())
    return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
  return &it->second;
}

Result<Sep::SepSpace*> Sep::space_of(DomainId id) {
  const auto it = spaces_.find(id);
  // A corpse has no space (kill released its memory) but still has a record:
  // callers must see domain_dead, not a claim the domain never existed.
  if (it == spaces_.end())
    return is_dead(id) ? Errc::domain_dead : Errc::no_such_domain;
  return &it->second;
}

Result<Bytes> Sep::read_page(const SepSpace& space, std::size_t page) const {
  Bytes raw;
  if (const Status s = machine_.memory().raw_read(space.frames[page],
                                                  hw::kPageSize, raw);
      !s.ok())
    return s.error();
  if (!space.sep_side) return raw;
  const crypto::Digest expected =
      inline_mac(space.frames[page], space.page_versions[page], raw);
  if (!ct_equal(crypto::digest_view(expected),
                crypto::digest_view(space.page_macs[page])))
    return Errc::tamper_detected;
  machine_.charge(0, machine_.costs().sep_inline_crypt_per_16_bytes,
                  hw::kPageSize);
  return inline_crypt(space.frames[page], space.page_versions[page], raw);
}

Status Sep::write_page(SepSpace& space, std::size_t page, BytesView content) {
  if (!space.sep_side)
    return machine_.memory().raw_write(space.frames[page], content);
  const std::uint64_t version = ++space.page_versions[page];
  const Bytes ct = inline_crypt(space.frames[page], version, content);
  space.page_macs[page] = inline_mac(space.frames[page], version, ct);
  machine_.charge(0, machine_.costs().sep_inline_crypt_per_16_bytes,
                  hw::kPageSize);
  return machine_.memory().raw_write(space.frames[page], ct);
}

Result<Bytes> Sep::read_memory(DomainId actor, DomainId target,
                               std::uint64_t offset, std::size_t len) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();
  if (actor != target) {
    // Physically separate processors: neither side reaches the other's
    // memory directly; everything goes through the mailbox.
    return Errc::access_denied;
  }
  const SepSpace& space = **target_space;
  if (offset + len > space.frames.size() * hw::kPageSize ||
      offset + len < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, len);
  Bytes out;
  out.reserve(len);
  while (len > 0) {
    const std::size_t page = offset / hw::kPageSize;
    const std::size_t in_page = offset % hw::kPageSize;
    const std::size_t n = std::min(len, hw::kPageSize - in_page);
    auto content = read_page(space, page);
    if (!content) return content.error();
    out.insert(out.end(), content->begin() + static_cast<long>(in_page),
               content->begin() + static_cast<long>(in_page + n));
    offset += n;
    len -= n;
  }
  return out;
}

Status Sep::write_memory(DomainId actor, DomainId target, std::uint64_t offset,
                         BytesView data) {
  if (is_dead(actor) || is_dead(target)) return Errc::domain_dead;
  auto actor_space = space_of(actor);
  if (!actor_space) return actor_space.error();
  auto target_space = space_of(target);
  if (!target_space) return target_space.error();
  if (actor != target) return Errc::access_denied;
  SepSpace& space = **target_space;
  if (offset + data.size() > space.frames.size() * hw::kPageSize ||
      offset + data.size() < offset)
    return Errc::access_denied;

  machine_.charge(0, machine_.costs().memcpy_per_16_bytes, data.size());
  while (!data.empty()) {
    const std::size_t page = offset / hw::kPageSize;
    const std::size_t in_page = offset % hw::kPageSize;
    const std::size_t n = std::min(data.size(), hw::kPageSize - in_page);
    auto content = read_page(space, page);
    if (!content) return content.error();
    std::copy(data.begin(), data.begin() + static_cast<long>(n),
              content->begin() + static_cast<long>(in_page));
    if (const Status s = write_page(space, page, *content); !s.ok()) return s;
    data = data.subspan(n);
    offset += n;
  }
  return Status::success();
}

Result<substrate::Quote> Sep::attest(DomainId actor, BytesView user_data) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->sep_side) return Errc::access_denied;
  return IsolationSubstrate::attest(actor, user_data);
}

Result<Bytes> Sep::seal(DomainId actor, BytesView plaintext) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->sep_side) return Errc::access_denied;
  return IsolationSubstrate::seal(actor, plaintext);
}

Result<Bytes> Sep::unseal(DomainId actor, BytesView sealed) {
  auto space = space_of(actor);
  if (!space) return space.error();
  if (!(*space)->sep_side) return Errc::access_denied;
  return IsolationSubstrate::unseal(actor, sealed);
}

Result<std::vector<hw::PhysAddr>> Sep::domain_frames(DomainId domain) const {
  auto space = space_of(domain);
  if (!space) return space.error();
  return (*space)->frames;
}

Cycles Sep::message_cost(std::size_t len) const {
  return machine_.costs().sep_mailbox_round_trip / 2 +
         machine_.costs().memcpy_per_16_bytes * ((len + 15) / 16);
}

substrate::ConcurrencyLaw Sep::concurrency_law() const {
  // The SEP is a single coprocessor behind one mailbox; round trips from
  // any core queue on the same mailbox doorbell.
  return substrate::ConcurrencyLaw::device_serialized;
}

Cycles Sep::attest_cost() const {
  return machine_.costs().sep_mailbox_round_trip;
}

Cycles Sep::region_map_cost(std::size_t pages) const {
  // One mailbox round trip to negotiate the window, then DMA programming
  // per page. Accesses ride the inline crypto engine, not the mailbox.
  return machine_.costs().sep_mailbox_round_trip +
         machine_.costs().dma_setup + machine_.costs().dma_per_page * pages;
}

Status register_factory(substrate::SubstrateRegistry& registry) {
  return registry.register_factory(
      "sep", [](hw::Machine& machine, const substrate::SubstrateConfig& config) {
        return std::make_unique<Sep>(machine, config);
      });
}

}  // namespace lateral::sep
