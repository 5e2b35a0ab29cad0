#include "toolbox/authenticator.h"

#include "substrate/quote.h"

namespace lateral::toolbox {
namespace {

constexpr char kLoginContext[] = "lateral.toolbox.login.v1";

}  // namespace

PasswordlessAuthenticator::PasswordlessAuthenticator(
    core::AttestationVerifier& verifier, std::string expected_component,
    BytesView token_key_seed)
    : verifier_(verifier),
      expected_component_(std::move(expected_component)),
      token_key_(crypto::hkdf(to_bytes("toolbox.auth.v1"), token_key_seed,
                              to_bytes("token-mac"), 32)) {}

Bytes PasswordlessAuthenticator::begin() { return verifier_.make_challenge(); }

crypto::Digest PasswordlessAuthenticator::token_mac(
    std::uint64_t serial, const crypto::Digest& device) const {
  crypto::Hmac mac = token_key_;
  std::uint8_t serial_be[8];
  for (int i = 0; i < 8; ++i)
    serial_be[i] = static_cast<std::uint8_t>(serial >> (56 - 8 * i));
  mac.update(BytesView(serial_be, 8));
  mac.update(crypto::digest_view(device));
  return mac.finish();
}

Result<SessionToken> PasswordlessAuthenticator::complete(BytesView quote_wire,
                                                         BytesView nonce) {
  if (const Status s = verifier_.verify(expected_component_, quote_wire,
                                        nonce, to_bytes(kLoginContext));
      !s.ok())
    return Errc::verification_failed;

  auto quote = substrate::Quote::deserialize(quote_wire);
  if (!quote) return Errc::invalid_argument;
  const crypto::Digest device = quote->ek_pub.fingerprint();

  const std::uint64_t serial = next_serial_++;
  active_.emplace(serial, device);

  // Token = serial || HMAC(key, serial || device-fingerprint).
  SessionToken token;
  token.serial = serial;
  for (int i = 7; i >= 0; --i)
    token.token.push_back(static_cast<std::uint8_t>(serial >> (8 * i)));
  const crypto::Digest mac = token_mac(serial, device);
  token.token.insert(token.token.end(), mac.begin(), mac.end());
  return token;
}

Status PasswordlessAuthenticator::validate(BytesView token) const {
  if (token.size() != 8 + 32) return Errc::verification_failed;
  std::uint64_t serial = 0;
  for (int i = 0; i < 8; ++i) serial = (serial << 8) | token[i];
  const auto it = active_.find(serial);
  if (it == active_.end()) return Errc::verification_failed;  // revoked/unknown
  const crypto::Digest expected = token_mac(serial, it->second);
  if (!ct_equal(BytesView(token.data() + 8, 32),
                crypto::digest_view(expected)))
    return Errc::verification_failed;
  return Status::success();
}

Status PasswordlessAuthenticator::revoke(std::uint64_t serial) {
  return active_.erase(serial) ? Status::success()
                               : Status(Errc::invalid_argument);
}

}  // namespace lateral::toolbox
