// RSA signature scheme: correctness, tamper rejection, serialization.
#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "util/hex.h"

namespace lateral::crypto {
namespace {

// The signing encoding, rebuilt here so a signature can be checked against
// a plain exponentiation: 0x00 0x01 FF..FF 0x00 "sha256:" SHA-256(message).
Bignum encode_for_test(BytesView message, std::size_t em_len) {
  const std::string marker = "sha256:";
  const Digest digest = Sha256::hash(message);
  Bytes em = {0x00, 0x01};
  em.insert(em.end(), em_len - marker.size() - digest.size() - 3, 0xFF);
  em.push_back(0x00);
  em.insert(em.end(), marker.begin(), marker.end());
  em.insert(em.end(), digest.begin(), digest.end());
  return Bignum::from_bytes(em);
}

class RsaTest : public ::testing::Test {
 protected:
  // Shared keypair: generation dominates test time, correctness tests can
  // reuse it.
  static const RsaKeyPair& keypair() {
    static const RsaKeyPair kp = [] {
      HmacDrbg drbg(to_bytes("rsa-test-keys"));
      return RsaKeyPair::generate(drbg, 512);
    }();
    return kp;
  }
};

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("hello world"));
  EXPECT_TRUE(rsa_verify(keypair().pub, to_bytes("hello world"), sig).ok());
}

TEST_F(RsaTest, RejectsDifferentMessage) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("message-a"));
  EXPECT_EQ(rsa_verify(keypair().pub, to_bytes("message-b"), sig).error(),
            Errc::verification_failed);
}

TEST_F(RsaTest, RejectsTamperedSignature) {
  Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(keypair().pub, to_bytes("msg"), sig).ok());
}

TEST_F(RsaTest, RejectsTruncatedSignature) {
  Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(keypair().pub, to_bytes("msg"), sig).ok());
}

TEST_F(RsaTest, RejectsWrongKey) {
  HmacDrbg drbg(to_bytes("other-key"));
  const RsaKeyPair other = RsaKeyPair::generate(drbg, 512);
  const Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  EXPECT_FALSE(rsa_verify(other.pub, to_bytes("msg"), sig).ok());
}

TEST_F(RsaTest, SignatureWidthEqualsModulusWidth) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("x"));
  EXPECT_EQ(sig.size(), (keypair().pub.n.bit_length() + 7) / 8);
}

TEST_F(RsaTest, EmptyMessageSignable) {
  const Bytes sig = rsa_sign(keypair(), {});
  EXPECT_TRUE(rsa_verify(keypair().pub, {}, sig).ok());
}

TEST_F(RsaTest, LargeMessageSignable) {
  const Bytes big(100'000, 0x42);
  const Bytes sig = rsa_sign(keypair(), big);
  EXPECT_TRUE(rsa_verify(keypair().pub, big, sig).ok());
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  auto parsed = RsaPublicKey::deserialize(keypair().pub.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, keypair().pub);
}

TEST_F(RsaTest, DeserializeRejectsTruncation) {
  Bytes wire = keypair().pub.serialize();
  wire.pop_back();
  EXPECT_FALSE(RsaPublicKey::deserialize(wire).ok());
}

TEST_F(RsaTest, DeserializeRejectsTrailingGarbage) {
  Bytes wire = keypair().pub.serialize();
  wire.push_back(0x00);
  EXPECT_FALSE(RsaPublicKey::deserialize(wire).ok());
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  EXPECT_EQ(keypair().pub.fingerprint(), keypair().pub.fingerprint());
  HmacDrbg drbg(to_bytes("fp-key"));
  const RsaKeyPair other = RsaKeyPair::generate(drbg, 512);
  EXPECT_NE(keypair().pub.fingerprint(), other.pub.fingerprint());
}

TEST_F(RsaTest, GenerationRejectsTinyModulus) {
  HmacDrbg drbg(to_bytes("tiny"));
  EXPECT_THROW(RsaKeyPair::generate(drbg, 128), Error);
}

TEST_F(RsaTest, DistinctKeysFromDistinctSeeds) {
  HmacDrbg a(to_bytes("seed-a")), b(to_bytes("seed-b"));
  EXPECT_NE(RsaKeyPair::generate(a, 512).pub,
            RsaKeyPair::generate(b, 512).pub);
}

TEST_F(RsaTest, DeterministicKeygenFromSeed) {
  HmacDrbg a(to_bytes("same-seed")), b(to_bytes("same-seed"));
  const RsaKeyPair ka = RsaKeyPair::generate(a, 512);
  const RsaKeyPair kb = RsaKeyPair::generate(b, 512);
  EXPECT_EQ(ka.pub, kb.pub);
  EXPECT_EQ(ka.d, kb.d);
}

TEST(Rsa, CrtSignatureEqualsPlainExponentiation) {
  HmacDrbg drbg(to_bytes("rsa-crt"));
  for (const std::size_t bits : {400u, 512u, 512u, 521u, 768u, 1024u}) {
    const RsaKeyPair kp = RsaKeyPair::generate(drbg, bits);
    const std::size_t em_len = (kp.pub.n.bit_length() + 7) / 8;
    for (const char* text : {"", "quote body", "another message"}) {
      const Bytes message = to_bytes(text);
      const Bignum plain =
          encode_for_test(message, em_len).powmod(kp.d, kp.pub.n);
      EXPECT_EQ(rsa_sign(kp, message), plain.to_bytes_padded(em_len).value())
          << bits << " " << text;
    }
  }
}

// Verification against a degenerate public key fails cleanly: it returns
// an error and never throws, on odd and even moduli alike.
void expect_verify_fails_cleanly(const RsaPublicKey& wire_key,
                                 const Bytes& real_signature) {
  auto key = RsaPublicKey::deserialize(wire_key.serialize());
  ASSERT_TRUE(key.ok());
  const std::size_t em_len = (key->n.bit_length() + 7) / 8;
  std::vector<Bytes> signatures = {Bytes(em_len, 0x00), Bytes(em_len, 0xFF),
                                   real_signature};
  if (key->n > Bignum(1))
    signatures.push_back((key->n - Bignum(1)).to_bytes_padded(em_len).value());
  signatures.push_back((key->n >> 1).to_bytes_padded(em_len).value());
  for (const Bytes& sig : signatures) {
    Status status = Status::success();
    EXPECT_NO_THROW(status = rsa_verify(*key, to_bytes("msg"), sig))
        << key->n.to_hex();
    EXPECT_TRUE(status.error() == Errc::verification_failed ||
                status.error() == Errc::crypto_failure)
        << key->n.to_hex() << " " << static_cast<int>(status.error());
  }
}

TEST_F(RsaTest, VerifyRejectsEvenModulus) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  const Bignum& n = keypair().pub.n;
  const Bignum e(65537);
  expect_verify_fails_cleanly({n + Bignum(1), e}, sig);
  expect_verify_fails_cleanly({n - Bignum(1), e}, sig);
  expect_verify_fails_cleanly({Bignum(1) << 511, e}, sig);
}

TEST_F(RsaTest, VerifyRejectsOneLimbModulus) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  const Bignum e(65537);
  for (const std::uint64_t n :
       {1ULL, 2ULL, 3ULL, 0xFFULL, 0x10000ULL, 0xFFFFFFFEULL, 0xFFFFFFFBULL})
    expect_verify_fails_cleanly({Bignum(n), e}, sig);
}

TEST_F(RsaTest, VerifyRejectsUnitExponent) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  const Bignum& n = keypair().pub.n;
  expect_verify_fails_cleanly({n, Bignum(1)}, sig);
  expect_verify_fails_cleanly({n + Bignum(1), Bignum(1)}, sig);
  expect_verify_fails_cleanly({Bignum(0xFFFFFFFBULL), Bignum(1)}, sig);
}

TEST(Rsa, KnownAnswerSignature) {
  // Keys, and so signatures, derive from the DRBG seed alone: the key's
  // fingerprint and the signature's digest are fixed for a given seed.
  struct Answer {
    std::size_t bits;
    const char* fingerprint;
    const char* signature_sha256;
  };
  const Answer answers[] = {
      {512, "a552ab79e4a60e22f6edc468927c75c4a98caba6242123ba9fee0a8e9f33ed18",
       "59498aeb027b6c4fe7447f254b0c603910be69da3dbd2f68cdf9644727376155"},
      {1024, "a4ebc3579d5c586b4ef384d83c5b0887611b1d8d419b9d49c59624b43cba10c5",
       "2ab4170e9cff85e6133c2735821c0203b35fa5f793ad220ccfbc1a62de12cbeb"},
  };
  for (const Answer& answer : answers) {
    HmacDrbg drbg(to_bytes("rsa-known-answer-" + std::to_string(answer.bits)));
    const RsaKeyPair kp = RsaKeyPair::generate(drbg, answer.bits);
    const Bytes message = to_bytes("lateral known-answer quote body");
    const Bytes sig = rsa_sign(kp, message);
    EXPECT_EQ(util::to_hex(digest_view(kp.pub.fingerprint())),
              answer.fingerprint)
        << answer.bits;
    EXPECT_EQ(util::to_hex(digest_view(Sha256::hash(sig))),
              answer.signature_sha256)
        << answer.bits;
    EXPECT_TRUE(rsa_verify(kp.pub, message, sig).ok()) << answer.bits;
  }
}

}  // namespace
}  // namespace lateral::crypto
