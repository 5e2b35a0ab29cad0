#include "net/secure_channel.h"

#include "crypto/sha256.h"

namespace lateral::net {
namespace {

// Record AAD: the sending direction, so a record cannot be reflected back.
constexpr std::uint8_t kInitiatorToResponder[] = {'i', '2', 'r'};
constexpr std::uint8_t kResponderToInitiator[] = {'r', '2', 'i'};

BytesView direction_aad(bool from_initiator) {
  return from_initiator ? BytesView(kInitiatorToResponder)
                        : BytesView(kResponderToInitiator);
}

void append_blob(Bytes& out, BytesView blob) {
  for (int i = 3; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(blob.size() >> (8 * i)));
  out.insert(out.end(), blob.begin(), blob.end());
}

Result<Bytes> read_blob(BytesView wire, std::size_t& offset) {
  if (offset + 4 > wire.size()) return Errc::invalid_argument;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | wire[offset++];
  if (offset + len > wire.size()) return Errc::invalid_argument;
  Bytes out(wire.begin() + static_cast<long>(offset),
            wire.begin() + static_cast<long>(offset + len));
  offset += len;
  return out;
}

}  // namespace

Bytes handshake_context(BytesView dh_i_wire, BytesView dh_r_wire) {
  Bytes context = to_bytes("lateral.sc.v1:");
  context.insert(context.end(), dh_i_wire.begin(), dh_i_wire.end());
  context.insert(context.end(), dh_r_wire.begin(), dh_r_wire.end());
  return context;
}

SecureChannelEndpoint::SecureChannelEndpoint(
    Role role, BytesView drbg_seed, std::optional<ProverConfig> prover,
    std::optional<VerifierConfig> verifier)
    : role_(role),
      drbg_(drbg_seed),
      prover_(prover),
      verifier_(verifier) {
  if (verifier_ && !verifier_->verifier)
    throw Error("SecureChannelEndpoint: null verifier");
  if (prover_ && !prover_->substrate)
    throw Error("SecureChannelEndpoint: null prover substrate");
  dh_ = crypto::DhKeyPair::generate(crypto::DhGroup::oakley1(), drbg_);
}

SecureChannelEndpoint::SecureChannelEndpoint(ResumeTag, Role role,
                                             BytesView key_material)
    : role_(role), drbg_(key_material) {
  // Resumed sessions never run the handshake, so no DH pair is generated —
  // skipping that keygen (plus the quote exchange) is the entire point of
  // the one-RTT path.
  aead_.emplace(key_material);
  established_ = true;
}

std::unique_ptr<SecureChannelEndpoint> SecureChannelEndpoint::resume(
    Role role, BytesView key_material) {
  return std::unique_ptr<SecureChannelEndpoint>(
      new SecureChannelEndpoint(ResumeTag{}, role, key_material));
}

void SecureChannelEndpoint::reset() {
  dh_ = crypto::DhKeyPair::generate(crypto::DhGroup::oakley1(), drbg_);
  peer_dh_ = crypto::Bignum();
  nonce_local_.clear();
  nonce_peer_.clear();
  dh_i_wire_.clear();
  dh_r_wire_.clear();
  aead_.reset();
  send_seq_ = 0;
  recv_seq_ = 0;
  established_ = false;
}

Result<Bytes> SecureChannelEndpoint::start() {
  if (role_ != Role::initiator) return Errc::invalid_argument;
  nonce_local_ = verifier_ ? verifier_->verifier->make_challenge()
                           : drbg_.generate(32);
  dh_i_wire_ = dh_.public_key.to_bytes();
  Bytes msg1;
  append_blob(msg1, dh_i_wire_);
  append_blob(msg1, nonce_local_);
  return msg1;
}

Result<Bytes> SecureChannelEndpoint::handle_msg1(BytesView msg1) {
  if (role_ != Role::responder) return Errc::invalid_argument;
  std::size_t offset = 0;
  auto dh_i = read_blob(msg1, offset);
  if (!dh_i) return dh_i.error();
  auto nonce_i = read_blob(msg1, offset);
  if (!nonce_i) return nonce_i.error();
  if (offset != msg1.size()) return Errc::invalid_argument;

  dh_i_wire_ = std::move(*dh_i);
  nonce_peer_ = std::move(*nonce_i);
  peer_dh_ = crypto::Bignum::from_bytes(dh_i_wire_);
  dh_r_wire_ = dh_.public_key.to_bytes();
  nonce_local_ = verifier_ ? verifier_->verifier->make_challenge()
                           : drbg_.generate(32);

  Bytes msg2;
  append_blob(msg2, dh_r_wire_);
  append_blob(msg2, nonce_local_);

  // Attest ourselves against the peer's challenge, bound to this exchange.
  Bytes quote_wire;
  if (prover_) {
    auto quote = core::respond_to_challenge(
        *prover_->substrate, prover_->domain, nonce_peer_,
        handshake_context(dh_i_wire_, dh_r_wire_));
    if (!quote) return quote.error();
    quote_wire = std::move(*quote);
  }
  append_blob(msg2, quote_wire);

  if (const Status s = derive_keys(); !s.ok()) return s.error();
  return msg2;
}

Result<Bytes> SecureChannelEndpoint::handle_msg2(BytesView msg2) {
  if (role_ != Role::initiator) return Errc::invalid_argument;
  std::size_t offset = 0;
  auto dh_r = read_blob(msg2, offset);
  if (!dh_r) return dh_r.error();
  auto nonce_r = read_blob(msg2, offset);
  if (!nonce_r) return nonce_r.error();
  auto quote_wire = read_blob(msg2, offset);
  if (!quote_wire) return quote_wire.error();
  if (offset != msg2.size()) return Errc::invalid_argument;

  dh_r_wire_ = std::move(*dh_r);
  nonce_peer_ = std::move(*nonce_r);
  peer_dh_ = crypto::Bignum::from_bytes(dh_r_wire_);

  if (verifier_) {
    // Refuse to talk to a manipulated instance (Fig. 3 flow).
    if (const Status s = verifier_->verifier->verify(
            verifier_->expected_peer, *quote_wire, nonce_local_,
            handshake_context(dh_i_wire_, dh_r_wire_));
        !s.ok())
      return Errc::verification_failed;
  }

  Bytes msg3;
  Bytes my_quote;
  if (prover_) {
    auto quote = core::respond_to_challenge(
        *prover_->substrate, prover_->domain, nonce_peer_,
        handshake_context(dh_i_wire_, dh_r_wire_));
    if (!quote) return quote.error();
    my_quote = std::move(*quote);
  }
  append_blob(msg3, my_quote);

  if (const Status s = derive_keys(); !s.ok()) return s.error();
  established_ = true;
  return msg3;
}

Status SecureChannelEndpoint::handle_msg3(BytesView msg3) {
  if (role_ != Role::responder) return Errc::invalid_argument;
  std::size_t offset = 0;
  auto quote_wire = read_blob(msg3, offset);
  if (!quote_wire) return quote_wire.error();
  if (offset != msg3.size()) return Errc::invalid_argument;

  if (verifier_) {
    if (quote_wire->empty()) return Errc::verification_failed;
    if (const Status s = verifier_->verifier->verify(
            verifier_->expected_peer, *quote_wire, nonce_local_,
            handshake_context(dh_i_wire_, dh_r_wire_));
        !s.ok())
      return Errc::verification_failed;
  }
  established_ = true;
  return Status::success();
}

Status SecureChannelEndpoint::derive_keys() {
  auto shared = crypto::dh_shared_secret(crypto::DhGroup::oakley1(),
                                         dh_.private_key, peer_dh_);
  if (!shared) return Errc::verification_failed;

  // Bind the transcript into the keys: any disagreement about the
  // handshake yields incompatible keys, not a silent downgrade. Both sides
  // hash in canonical order (initiator's nonce first).
  crypto::Sha256 canonical;
  canonical.update(dh_i_wire_);
  canonical.update(dh_r_wire_);
  if (role_ == Role::initiator) {
    canonical.update(nonce_local_);
    canonical.update(nonce_peer_);
  } else {
    canonical.update(nonce_peer_);
    canonical.update(nonce_local_);
  }
  const crypto::Digest t = canonical.finish();

  const Bytes key_material =
      crypto::hkdf(crypto::digest_bytes(t), *shared,
                   to_bytes("lateral.securechannel.keys.v1"), 32);
  aead_.emplace(key_material);
  return Status::success();
}

Result<Bytes> SecureChannelEndpoint::seal_record(BytesView plaintext) {
  if (!established_ || !aead_) return Errc::would_block;
  // Per-direction nonce spaces: initiator even, responder odd.
  const std::uint64_t nonce =
      (send_seq_ << 1) | (role_ == Role::responder ? 1 : 0);
  ++send_seq_;
  const crypto::SealedBox box = aead_->seal(
      nonce, direction_aad(role_ == Role::initiator), plaintext);

  Bytes wire;
  wire.reserve(24 + plaintext.size());
  for (int i = 7; i >= 0; --i)
    wire.push_back(static_cast<std::uint8_t>(box.nonce >> (8 * i)));
  wire.insert(wire.end(), box.tag.begin(), box.tag.end());
  wire.insert(wire.end(), box.ciphertext.begin(), box.ciphertext.end());
  return wire;
}

Result<Bytes> SecureChannelEndpoint::open_record(BytesView wire) {
  if (!established_ || !aead_) return Errc::would_block;
  if (wire.size() < 24) return Errc::invalid_argument;

  crypto::SealedBox box;
  for (int i = 0; i < 8; ++i) box.nonce = (box.nonce << 8) | wire[i];
  std::copy(wire.begin() + 8, wire.begin() + 24, box.tag.begin());
  box.ciphertext.assign(wire.begin() + 24, wire.end());

  // Strict ordering: the next record from the peer must carry exactly the
  // expected sequence number in the peer's nonce space.
  const std::uint64_t expected_nonce =
      (recv_seq_ << 1) | (role_ == Role::initiator ? 1 : 0);
  if (box.nonce != expected_nonce) return Errc::verification_failed;

  auto plain = aead_->open(box, direction_aad(role_ == Role::responder));
  if (!plain) return Errc::verification_failed;
  ++recv_seq_;
  return std::move(*plain);
}

}  // namespace lateral::net
