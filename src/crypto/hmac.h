// HMAC-SHA256 (RFC 2104), HKDF (RFC 5869) and HMAC-DRBG (SP 800-90A).
//
// HMAC authenticates channel records and VPFS blocks; HKDF derives session
// and sealing keys; HMAC-DRBG is the deterministic cryptographic randomness
// source used inside protocols (seedable, so tests are reproducible).
#pragma once

#include "crypto/sha256.h"
#include "util/types.h"

namespace lateral::crypto {

/// One-shot HMAC-SHA256.
Digest hmac_sha256(BytesView key, BytesView message);

/// Incremental HMAC context. Keying hashes the ipad and opad blocks once;
/// a keyed Hmac is a prototype that callers copy per message, so a reused
/// key costs no more compressions than the message itself needs.
class Hmac {
 public:
  explicit Hmac(BytesView key);
  void update(BytesView data);
  /// Finalize; like Sha256, a context (or copy) is finished only once.
  Digest finish();

 private:
  Sha256 inner_;  // after the ipad block, then the message
  Sha256 outer_;  // after the opad block
};

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: derive `length` bytes from a PRK and context info.
Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length);

/// Convenience: extract-then-expand.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

/// Deterministic random bit generator per SP 800-90A (HMAC_DRBG, SHA-256).
class HmacDrbg {
 public:
  explicit HmacDrbg(BytesView seed);

  /// Generate n pseudo-random bytes.
  Bytes generate(std::size_t n);

  /// Mix additional entropy into the state.
  void reseed(BytesView entropy);

 private:
  void update_state(BytesView provided);

  Bytes key_;  // K
  Bytes v_;    // V
};

}  // namespace lateral::crypto
