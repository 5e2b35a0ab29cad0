// AES-128 against FIPS 197 / NIST SP 800-38A vectors; CTR mode and the
// encrypt-then-MAC AEAD construction.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

Bytes unhex(const std::string& hex) {
  auto r = util::from_hex(hex);
  EXPECT_TRUE(r.ok());
  return *r;
}

Aes128Key key_of(const std::string& hex) {
  const Bytes raw = unhex(hex);
  Aes128Key key{};
  std::copy(raw.begin(), raw.end(), key.begin());
  return key;
}

// FIPS 197 Appendix C.1.
TEST(Aes128, Fips197Vector) {
  const Aes128Key key = key_of("000102030405060708090a0b0c0d0e0f");
  AesBlock block{};
  const Bytes pt = unhex("00112233445566778899aabbccddeeff");
  std::copy(pt.begin(), pt.end(), block.begin());
  Aes128(key).encrypt_block(block);
  EXPECT_EQ(util::to_hex(BytesView(block.data(), block.size())),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS 197 Appendix B.
TEST(Aes128, Fips197AppendixB) {
  const Aes128Key key = key_of("2b7e151628aed2a6abf7158809cf4f3c");
  AesBlock block{};
  const Bytes pt = unhex("3243f6a8885a308d313198a2e0370734");
  std::copy(pt.begin(), pt.end(), block.begin());
  Aes128(key).encrypt_block(block);
  EXPECT_EQ(util::to_hex(BytesView(block.data(), block.size())),
            "3925841d02dc09fbdc118597196a0b32");
}

TEST(AesCtr, RoundTripsArbitraryLengths) {
  const Aes128Key key = key_of("000102030405060708090a0b0c0d0e0f");
  util::Xoshiro rng(3);
  for (const std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    const Bytes plain = rng.bytes(len);
    const Bytes ct = aes128_ctr(Aes128(key), 99, plain);
    EXPECT_EQ(aes128_ctr(Aes128(key), 99, ct), plain) << "len=" << len;
    if (len >= 16) {
      EXPECT_NE(ct, plain);
    }
  }
}

TEST(AesCtr, DifferentNoncesDifferentStreams) {
  const Aes128Key key = key_of("000102030405060708090a0b0c0d0e0f");
  const Bytes plain(64, 0);
  EXPECT_NE(aes128_ctr(Aes128(key), 1, plain),
            aes128_ctr(Aes128(key), 2, plain));
}

TEST(AesCtr, KeystreamIsNotPlaintextDependent) {
  // CTR XORs a keystream: ct(a) XOR ct(b) == a XOR b for same key/nonce.
  const Aes128Key key = key_of("2b7e151628aed2a6abf7158809cf4f3c");
  util::Xoshiro rng(5);
  const Bytes a = rng.bytes(48), b = rng.bytes(48);
  const Bytes ca = aes128_ctr(Aes128(key), 7, a),
              cb = aes128_ctr(Aes128(key), 7, b);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(ca[i] ^ cb[i], a[i] ^ b[i]);
}

// Known answers for CTR output over the counting plaintext 00 01 02 ...
// under the FIPS 197 Appendix C.1 key, captured from the byte-wise round
// implementation the table-driven one replaced. Outputs up to 64 B are
// pinned in full, the 4 KiB one by its SHA-256 digest.
Bytes counting(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

struct CtrAnswer {
  std::uint64_t nonce;
  std::size_t len;
  const char* hex;  // full output; empty when only the digest is pinned
  const char* sha256;
};

constexpr CtrAnswer kCtrAnswers[] = {
    {0, 0, "",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {0, 1, "c6",
     "49994461d6b46390f014c8c5275a8591ef8764760afe2739cee23f6fbe285778"},
    {0, 15, "c6a03934838a5d8567468b69adc5d6",
     "4532b75eaf8833f1d58f2c9019e699220934a909f04f5202caadfdd093819c6b"},
    {0, 16, "c6a03934838a5d8567468b69adc5d676",
     "550c1103bde0c520e1f9837b83d697f92d7957b21badbad96b09d3a30d8fa1b8"},
    {0, 17, "c6a03934838a5d8567468b69adc5d67663",
     "54bd9ba3bc5f2804e55904892954aea134c9bc42a708caa514170523e00daae3"},
    {0, 64,
     "c6a03934838a5d8567468b69adc5d6766357018681d5a2095162a7f879e93315"
     "69f7a570bdbe80abcba050434cac9eb2899c191d005ff40f68640c65a08ac269",
     "986a01cee7cae955c8ec5da28dd321276c072c43100f3838769ad29a4fb39af5"},
    {0, 4096, "",
     "7ff016722c35b0a3352373e825567bf2fdaacd1754b572b18e30fce75f78e5ea"},
    {0x0123456789abcdef, 0, "",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {0x0123456789abcdef, 1, "e2",
     "30a5bfa58e128af9e5a4955725d8ad26d4d574a537b58b7dc6d357acad578572"},
    {0x0123456789abcdef, 15, "e2c910110a7f4207ef05c81d9f5873",
     "030033fde96b1482eeed7aa68c0e698e619a4ff9577614e56c49d4d2cce0c7d2"},
    {0x0123456789abcdef, 16, "e2c910110a7f4207ef05c81d9f587351",
     "784eb32dcceafc7233c73281a22bfd22330d800a08d34c134c88fa655ca2a971"},
    {0x0123456789abcdef, 17, "e2c910110a7f4207ef05c81d9f587351e0",
     "7ec0aedfb4d6adbff04f884190e6a2d4464c6639cb465b2022b356a82a08578e"},
    {0x0123456789abcdef, 64,
     "e2c910110a7f4207ef05c81d9f587351e0f2fa20334d3cd2a93537d4e7eaa021"
     "4c1530fadd8bdffdc5e422047c6ef979d9b984bd8a5fd01fb30a2ba73979b949",
     "050f759a5ee5f6fd5c604098d69cd60c0cc97f41a483aac550413941ffd58778"},
    {0x0123456789abcdef, 4096, "",
     "45ae23a6e3d8d3af1af17762517383d61702202a94c92b906aefd56f70666137"},
};

TEST(AesCtr, KnownAnswers) {
  const Aes128 cipher(key_of("000102030405060708090a0b0c0d0e0f"));
  for (const CtrAnswer& answer : kCtrAnswers) {
    const Bytes ct = aes128_ctr(cipher, answer.nonce, counting(answer.len));
    ASSERT_EQ(ct.size(), answer.len);
    if (answer.len <= 64) {
      EXPECT_EQ(util::to_hex(ct), answer.hex)
          << "nonce=" << answer.nonce << " len=" << answer.len;
    }
    EXPECT_EQ(util::to_hex(digest_view(Sha256::hash(ct))), answer.sha256)
        << "nonce=" << answer.nonce << " len=" << answer.len;
  }
}

// A 64 B meter-sized record sealed with the channel's initiator AAD.
TEST(Aead, KnownAnswerSeal64) {
  const Aead aead(to_bytes("key material"));
  const SealedBox box = aead.seal(42, to_bytes("i2r"), counting(64));
  EXPECT_EQ(box.nonce, 42u);
  EXPECT_EQ(util::to_hex(box.ciphertext),
            "7c0bf57cbff39ca9c1cab2d7a70b38fdb37019c90a204caeb15818a3023bf85e"
            "7f87d3fabd7d760412fbd825a30b045bf7226f0e53b449945f6da1d85341ee9a");
  EXPECT_EQ(util::to_hex(BytesView(box.tag.data(), box.tag.size())),
            "342e11d7bf5871998cd826147fc1d8ee");
  auto open = aead.open(box, to_bytes("i2r"));
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, counting(64));
}

TEST(Aead, SealOpenRoundTrip) {
  const Aead aead(to_bytes("key material"));
  const SealedBox box = aead.seal(1, to_bytes("aad"), to_bytes("payload"));
  auto open = aead.open(box, to_bytes("aad"));
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(to_string(*open), "payload");
}

TEST(Aead, DetectsCiphertextTampering) {
  const Aead aead(to_bytes("key material"));
  SealedBox box = aead.seal(1, {}, to_bytes("payload"));
  box.ciphertext[0] ^= 0x01;
  EXPECT_EQ(aead.open(box, {}).error(), Errc::verification_failed);
}

TEST(Aead, DetectsTagTampering) {
  const Aead aead(to_bytes("key material"));
  SealedBox box = aead.seal(1, {}, to_bytes("payload"));
  box.tag[5] ^= 0x80;
  EXPECT_EQ(aead.open(box, {}).error(), Errc::verification_failed);
}

TEST(Aead, DetectsNonceTampering) {
  const Aead aead(to_bytes("key material"));
  SealedBox box = aead.seal(1, {}, to_bytes("payload"));
  box.nonce = 2;
  EXPECT_EQ(aead.open(box, {}).error(), Errc::verification_failed);
}

TEST(Aead, DetectsAadMismatch) {
  const Aead aead(to_bytes("key material"));
  const SealedBox box = aead.seal(1, to_bytes("context-a"), to_bytes("data"));
  EXPECT_EQ(aead.open(box, to_bytes("context-b")).error(),
            Errc::verification_failed);
}

TEST(Aead, EmptyPlaintextStillAuthenticated) {
  const Aead aead(to_bytes("key material"));
  SealedBox box = aead.seal(4, to_bytes("aad"), {});
  ASSERT_TRUE(aead.open(box, to_bytes("aad")).ok());
  box.tag[0] ^= 1;
  EXPECT_FALSE(aead.open(box, to_bytes("aad")).ok());
}

TEST(Aead, DifferentKeyMaterialCannotOpen) {
  const Aead a(to_bytes("key-1")), b(to_bytes("key-2"));
  const SealedBox box = a.seal(1, {}, to_bytes("data"));
  EXPECT_FALSE(b.open(box, {}).ok());
}

TEST(Aead, AadLengthConfusionResisted) {
  // (aad="ab", pt starts "c...") must not collide with (aad="a", pt "bc..."):
  // the AAD is length-prefixed in the MAC input.
  const Aead aead(to_bytes("key"));
  const SealedBox box = aead.seal(1, to_bytes("ab"), to_bytes("xyz"));
  EXPECT_FALSE(aead.open(box, to_bytes("a")).ok());
}

TEST(KeyFromBytes, RequiresSixteenBytes) {
  EXPECT_FALSE(key_from_bytes(Bytes(15, 1)).ok());
  auto key = key_from_bytes(Bytes(16, 1));
  ASSERT_TRUE(key.ok());
  auto longer = key_from_bytes(Bytes(32, 1));
  ASSERT_TRUE(longer.ok());
  EXPECT_EQ(*key, *longer);  // uses the first 16 bytes
}

class AeadSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadSizeTest, RoundTripsAtSize) {
  const Aead aead(to_bytes("sweep key"));
  util::Xoshiro rng(GetParam() + 1);
  const Bytes plain = rng.bytes(GetParam());
  const SealedBox box = aead.seal(GetParam(), to_bytes("s"), plain);
  auto open = aead.open(box, to_bytes("s"));
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, plain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizeTest,
                         ::testing::Values(0, 1, 15, 16, 17, 255, 256, 1000,
                                           4096, 10000));

}  // namespace
}  // namespace lateral::crypto
