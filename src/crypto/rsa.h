// RSA signatures (PKCS#1 v1.5-style padding over SHA-256), from scratch.
//
// Attestation quotes, vendor certificate chains and launch-policy code
// signing all use these signatures. Key sizes are configurable: tests use
// 512-bit keys for speed, root/vendor keys default to 1024 bits. These
// parameters are simulation-scale, not deployment advice.
#pragma once

#include "crypto/bignum.h"
#include "crypto/sha256.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::crypto {

class HmacDrbg;

struct RsaPublicKey {
  Bignum n;  // modulus
  Bignum e;  // public exponent (65537)

  /// Stable fingerprint: SHA-256 of the serialized key.
  Digest fingerprint() const;

  /// Wire serialization (length-prefixed n and e).
  Bytes serialize() const;
  static Result<RsaPublicKey> deserialize(BytesView wire);

  bool operator==(const RsaPublicKey&) const = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  Bignum d;  // private exponent
  // CRT form of d, which signing uses: n = p * q, d_p = d mod (p - 1),
  // d_q = d mod (q - 1), q_inv = q^-1 mod p.
  Bignum p;
  Bignum q;
  Bignum d_p;
  Bignum d_q;
  Bignum q_inv;

  /// Generate a fresh key pair with an n of `modulus_bits`.
  static RsaKeyPair generate(HmacDrbg& drbg, std::size_t modulus_bits);
};

/// Sign SHA-256(message) with PKCS#1 v1.5-style padding. The exponentiation
/// runs mod p and mod q and is recombined by Garner's formula; the result
/// equals encode(message)^d mod n.
Bytes rsa_sign(const RsaKeyPair& key, BytesView message);

/// Verify a signature over `message`. Status with
/// Errc::verification_failed on mismatch.
Status rsa_verify(const RsaPublicKey& key, BytesView message,
                  BytesView signature);

}  // namespace lateral::crypto
