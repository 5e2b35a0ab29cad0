#include "crypto/aes.h"

#include <cstring>

namespace lateral::crypto {
namespace {

// Forward S-box, generated from the AES polynomial; standard constants.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};


constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

// T-tables: kTe[0][x] is the MixColumns column (2s, s, s, 3s) of s = S(x),
// packed big-endian; kTe[r] is kTe[0] rotated right by 8r bits and serves
// the byte that ShiftRows brings into row r.
using TTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr TTables make_t_tables() {
  TTables te{};
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    te[0][x] = (std::uint32_t(s2) << 24) | (std::uint32_t(s) << 16) |
               (std::uint32_t(s) << 8) | std::uint32_t(s3);
    for (int r = 1; r < 4; ++r)
      te[r][x] = (te[r - 1][x] >> 8) | (te[r - 1][x] << 24);
  }
  return te;
}

constexpr TTables kTe = make_t_tables();

std::uint32_t sub_word(std::uint32_t w) {
  return (std::uint32_t(kSbox[(w >> 24) & 0xFF]) << 24) |
         (std::uint32_t(kSbox[(w >> 16) & 0xFF]) << 16) |
         (std::uint32_t(kSbox[(w >> 8) & 0xFF]) << 8) |
         std::uint32_t(kSbox[w & 0xFF]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t w) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

// One output column of rounds 1-9: SubBytes, ShiftRows and MixColumns as
// four table lookups. Column c takes row r from input column c + r.
std::uint32_t t_round(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                      std::uint32_t d, std::uint32_t round_key) {
  return kTe[0][a >> 24] ^ kTe[1][(b >> 16) & 0xFF] ^
         kTe[2][(c >> 8) & 0xFF] ^ kTe[3][d & 0xFF] ^ round_key;
}

// One output column of round 10: SubBytes and ShiftRows only.
std::uint32_t final_round(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                          std::uint32_t d, std::uint32_t round_key) {
  return sub_word((a & 0xFF000000) | (b & 0x00FF0000) | (c & 0x0000FF00) |
                  (d & 0x000000FF)) ^
         round_key;
}

std::array<std::uint8_t, 48> aead_keys(BytesView key_material) {
  const Bytes keys = hkdf(to_bytes("lateral.aead.v1"), key_material,
                          to_bytes("enc+mac"), 48);
  std::array<std::uint8_t, 48> out;
  std::memcpy(out.data(), keys.data(), out.size());
  return out;
}

}  // namespace

Aes128::Aes128(const Aes128Key& key) {
  for (int i = 0; i < 4; ++i) round_keys_[i] = load_be32(&key[4 * i]);
  for (int i = 4; i < 44; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % 4 == 0)
      temp = sub_word(rot_word(temp)) ^ (std::uint32_t(kRcon[i / 4 - 1]) << 24);
    round_keys_[i] = round_keys_[i - 4] ^ temp;
  }
}

void Aes128::encrypt_block(AesBlock& block) const {
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be32(&block[0]) ^ rk[0];
  std::uint32_t s1 = load_be32(&block[4]) ^ rk[1];
  std::uint32_t s2 = load_be32(&block[8]) ^ rk[2];
  std::uint32_t s3 = load_be32(&block[12]) ^ rk[3];
  for (int round = 1; round < 10; ++round) {
    rk += 4;
    const std::uint32_t t0 = t_round(s0, s1, s2, s3, rk[0]);
    const std::uint32_t t1 = t_round(s1, s2, s3, s0, rk[1]);
    const std::uint32_t t2 = t_round(s2, s3, s0, s1, rk[2]);
    const std::uint32_t t3 = t_round(s3, s0, s1, s2, rk[3]);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  store_be32(&block[0], final_round(s0, s1, s2, s3, rk[0]));
  store_be32(&block[4], final_round(s1, s2, s3, s0, rk[1]));
  store_be32(&block[8], final_round(s2, s3, s0, s1, rk[2]));
  store_be32(&block[12], final_round(s3, s0, s1, s2, rk[3]));
}

Bytes aes128_ctr(const Aes128& cipher, std::uint64_t nonce, BytesView data) {
  Bytes out(data.begin(), data.end());
  AesBlock counter_block{};
  store_be32(&counter_block[0], static_cast<std::uint32_t>(nonce >> 32));
  store_be32(&counter_block[4], static_cast<std::uint32_t>(nonce));

  std::uint64_t counter = 0;
  for (std::size_t offset = 0; offset < out.size(); offset += 16) {
    AesBlock keystream = counter_block;
    store_be32(&keystream[8], static_cast<std::uint32_t>(counter >> 32));
    store_be32(&keystream[12], static_cast<std::uint32_t>(counter));
    cipher.encrypt_block(keystream);
    const std::size_t n = std::min<std::size_t>(16, out.size() - offset);
    for (std::size_t i = 0; i < n; ++i) out[offset + i] ^= keystream[i];
    ++counter;
  }
  return out;
}

Aead::Aead(BytesView key_material) : Aead(aead_keys(key_material)) {}

Aead::Aead(const std::array<std::uint8_t, 48>& keys)
    : cipher_(*key_from_bytes(keys)),
      mac_(BytesView(keys.data() + 16, keys.size() - 16)) {}

std::array<std::uint8_t, 16> Aead::compute_tag(std::uint64_t nonce,
                                               BytesView aad,
                                               BytesView ciphertext) const {
  Hmac mac = mac_;
  std::uint8_t nonce_be[8];
  for (int i = 0; i < 8; ++i)
    nonce_be[i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  mac.update(BytesView(nonce_be, 8));
  // Length-prefix the AAD so (aad, ct) boundaries are unambiguous.
  std::uint8_t aad_len_be[8];
  const std::uint64_t alen = aad.size();
  for (int i = 0; i < 8; ++i)
    aad_len_be[i] = static_cast<std::uint8_t>(alen >> (56 - 8 * i));
  mac.update(BytesView(aad_len_be, 8));
  mac.update(aad);
  mac.update(ciphertext);
  const Digest full = mac.finish();
  std::array<std::uint8_t, 16> tag;
  std::memcpy(tag.data(), full.data(), 16);
  return tag;
}

SealedBox Aead::seal(std::uint64_t nonce, BytesView aad,
                     BytesView plaintext) const {
  SealedBox box;
  box.nonce = nonce;
  box.ciphertext = aes128_ctr(cipher_, nonce, plaintext);
  box.tag = compute_tag(nonce, aad, box.ciphertext);
  return box;
}

Result<Bytes> Aead::open(const SealedBox& box, BytesView aad) const {
  const auto expected = compute_tag(box.nonce, aad, box.ciphertext);
  if (!ct_equal(BytesView(expected.data(), expected.size()),
                BytesView(box.tag.data(), box.tag.size())))
    return Errc::verification_failed;
  return aes128_ctr(cipher_, box.nonce, box.ciphertext);
}

Result<Aes128Key> key_from_bytes(BytesView material) {
  if (material.size() < 16) return Errc::crypto_failure;
  Aes128Key key;
  std::memcpy(key.data(), material.data(), 16);
  return key;
}

}  // namespace lateral::crypto
