// Password-less authenticator (paper §III-C: "The smart meter example also
// demonstrates password-less authentication: The user is not entering a
// password ... but the appliance is authenticating itself using a secret
// hardware key. Because the user does not need to remember a credential,
// the system is resilient against phishing attacks.").
//
// Server side of that flow: challenge the device, verify the quote chain
// and code identity, then mint an HMAC-authenticated session token bound to
// the device's endorsement-key fingerprint. No credential ever exists that
// a phisher could trick the user into typing.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/attestation.h"
#include "crypto/hmac.h"
#include "substrate/substrate.h"
#include "util/result.h"

namespace lateral::toolbox {

struct SessionToken {
  Bytes token;           // opaque to the client
  std::uint64_t serial;  // server-side bookkeeping
};

class PasswordlessAuthenticator {
 public:
  /// `verifier` must already know the vendor roots and the expected device
  /// component measurement under `expected_component`.
  PasswordlessAuthenticator(core::AttestationVerifier& verifier,
                            std::string expected_component,
                            BytesView token_key_seed);

  /// Step 1: server issues a challenge nonce.
  Bytes begin();

  /// Step 2: device answered with a quote (over the nonce and context
  /// "login"); on success mint a session token bound to the device's EK
  /// fingerprint.
  Result<SessionToken> complete(BytesView quote_wire, BytesView nonce);

  /// Validate a presented token. Errc::verification_failed for forged,
  /// tampered or revoked tokens.
  Status validate(BytesView token) const;

  Status revoke(std::uint64_t serial);
  std::size_t active_sessions() const { return active_.size(); }

 private:
  crypto::Digest token_mac(std::uint64_t serial,
                           const crypto::Digest& device) const;

  core::AttestationVerifier& verifier_;
  std::string expected_component_;
  crypto::Hmac token_key_;  // keyed prototype, copied per token
  std::uint64_t next_serial_ = 1;
  std::map<std::uint64_t, crypto::Digest> active_;  // serial -> device fp
};

}  // namespace lateral::toolbox
