// HMAC-SHA256 against RFC 4231, HKDF against RFC 5869, HMAC-DRBG behaviour.
#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

Bytes unhex(const std::string& hex) {
  auto r = util::from_hex(hex);
  EXPECT_TRUE(r.ok());
  return *r;
}

std::string hex_of(const Digest& d) { return util::to_hex(digest_view(d)); }

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_of(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 (short key).
TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_of(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6 (key longer than the block size).
TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_of(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, IncrementalMatchesOneShot) {
  Hmac ctx(to_bytes("key"));
  ctx.update(to_bytes("part1"));
  ctx.update(to_bytes("part2"));
  EXPECT_EQ(ctx.finish(), hmac_sha256(to_bytes("key"), to_bytes("part1part2")));
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  EXPECT_NE(hmac_sha256(to_bytes("k1"), to_bytes("m")),
            hmac_sha256(to_bytes("k2"), to_bytes("m")));
}

// A keyed Hmac is a prototype: each copy MACs one message, and finishing a
// copy leaves the prototype able to MAC again. RFC 4231 cases 1-4, 6 and 7,
// each reproduced by several copies that feed the message in different
// splits, then by the prototype itself.
struct Rfc4231Case {
  Bytes key;
  Bytes data;
  const char* mac;
};

std::vector<Rfc4231Case> rfc4231_cases() {
  Bytes key4;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key4.push_back(b);
  return {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(Hmac, KeyedPrototypeCopiesReproduceRfc4231) {
  for (const Rfc4231Case& c : rfc4231_cases()) {
    Hmac prototype(c.key);
    for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                    c.data.size() / 2, c.data.size()}) {
      Hmac copy = prototype;
      copy.update(BytesView(c.data.data(), split));
      copy.update(BytesView(c.data.data() + split, c.data.size() - split));
      EXPECT_EQ(hex_of(copy.finish()), c.mac) << "split=" << split;
    }
    Hmac byte_wise = prototype;
    for (const std::uint8_t b : c.data) byte_wise.update(BytesView(&b, 1));
    EXPECT_EQ(hex_of(byte_wise.finish()), c.mac);
    prototype.update(c.data);
    EXPECT_EQ(hex_of(prototype.finish()), c.mac);
  }
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = unhex("000102030405060708090a0b0c");
  const Bytes info = unhex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(util::to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3 (empty salt and info).
TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(util::to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengthControl) {
  const Digest prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  EXPECT_EQ(hkdf_expand(prk, to_bytes("i"), 1).size(), 1u);
  EXPECT_EQ(hkdf_expand(prk, to_bytes("i"), 33).size(), 33u);
  EXPECT_EQ(hkdf_expand(prk, to_bytes("i"), 255 * 32).size(), 255u * 32);
  EXPECT_THROW(hkdf_expand(prk, to_bytes("i"), 255 * 32 + 1), Error);
}

TEST(Hkdf, ExpandPrefixConsistency) {
  // Shorter outputs are prefixes of longer ones (HKDF structure).
  const Digest prk = hkdf_extract(to_bytes("s"), to_bytes("k"));
  const Bytes long_out = hkdf_expand(prk, to_bytes("ctx"), 64);
  const Bytes short_out = hkdf_expand(prk, to_bytes("ctx"), 16);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

TEST(HmacDrbg, DeterministicForSameSeed) {
  HmacDrbg a(to_bytes("seed")), b(to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_EQ(a.generate(17), b.generate(17));
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a(to_bytes("seed-a")), b(to_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, OutputAdvancesState) {
  HmacDrbg drbg(to_bytes("seed"));
  EXPECT_NE(drbg.generate(32), drbg.generate(32));
}

TEST(HmacDrbg, ReseedChangesStream) {
  HmacDrbg a(to_bytes("seed")), b(to_bytes("seed"));
  (void)a.generate(8);
  (void)b.generate(8);
  b.reseed(to_bytes("extra entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, LargeRequest) {
  HmacDrbg drbg(to_bytes("seed"));
  EXPECT_EQ(drbg.generate(10'000).size(), 10'000u);
}

}  // namespace
}  // namespace lateral::crypto
