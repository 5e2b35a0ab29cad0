// AES-128 (FIPS 197) block cipher with CTR mode and an encrypt-then-MAC
// authenticated encryption construction (AES-128-CTR + HMAC-SHA256).
//
// This is the memory-encryption engine of the simulated SGX/SEP substrates
// and the record protection of net::SecureChannel and vpfs.
//
// The block function runs on four 256-entry T-tables (S-box and MixColumns
// folded into one lookup per byte). Lookups are indexed by secret state
// bytes, as the S-box lookups of a byte-wise AES are, so neither is
// constant-time: cache-timing side channels against the host's crypto are
// out of scope (docs/threat-model.md).
#pragma once

#include <array>

#include "crypto/hmac.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::crypto {

using Aes128Key = std::array<std::uint8_t, 16>;
using AesBlock = std::array<std::uint8_t, 16>;

/// AES-128 block cipher (encryption direction only; CTR never decrypts).
/// Construction expands the key schedule; keep one per key and reuse it.
class Aes128 {
 public:
  // Implicit, so a raw key still converts (expanding it for that one use).
  Aes128(const Aes128Key& key);  // NOLINT(google-explicit-constructor)

  /// Encrypt a single 16-byte block in place.
  void encrypt_block(AesBlock& block) const;

 private:
  std::array<std::uint32_t, 44> round_keys_;
};

/// AES-128-CTR keystream transform. Encryption and decryption are identical.
/// `nonce` occupies the first 8 bytes of the counter block; the remaining
/// 8 bytes are a big-endian block counter starting at 0.
Bytes aes128_ctr(const Aes128& cipher, std::uint64_t nonce, BytesView data);

/// Authenticated encryption: AES-128-CTR under enc_key, then HMAC-SHA256 of
/// (nonce || aad || ciphertext) under mac_key, truncated to 16 bytes.
struct SealedBox {
  std::uint64_t nonce = 0;
  Bytes ciphertext;
  std::array<std::uint8_t, 16> tag{};
};

class Aead {
 public:
  /// Derives independent encryption and MAC keys from `key_material`
  /// (any length) via HKDF.
  explicit Aead(BytesView key_material);

  SealedBox seal(std::uint64_t nonce, BytesView aad, BytesView plaintext) const;

  /// Errc::verification_failed when the tag does not match.
  Result<Bytes> open(const SealedBox& box, BytesView aad) const;

 private:
  explicit Aead(const std::array<std::uint8_t, 48>& keys);  // enc || mac
  std::array<std::uint8_t, 16> compute_tag(std::uint64_t nonce, BytesView aad,
                                           BytesView ciphertext) const;
  Aes128 cipher_;
  Hmac mac_;  // keyed prototype, copied per tag
};

/// Helper: build an Aes128Key from the first 16 bytes of a buffer.
Result<Aes128Key> key_from_bytes(BytesView material);

}  // namespace lateral::crypto
