// Bignum arithmetic: identities, division properties, modular arithmetic,
// primality. Property sweeps use randomized operands checked against
// algebraic invariants rather than fixed expected values.
#include <gtest/gtest.h>

#include "crypto/bignum.h"
#include "crypto/hmac.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

Bignum rand_bignum(util::Xoshiro& rng, std::size_t max_bytes) {
  return Bignum::from_bytes(rng.bytes(1 + rng.below(max_bytes)));
}

TEST(Bignum, ZeroProperties) {
  const Bignum zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_bytes().size(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
}

TEST(Bignum, FromUint64) {
  EXPECT_EQ(Bignum(0x1234).to_hex(), "1234");
  EXPECT_EQ(Bignum(0xFFFFFFFFFFFFFFFFULL).to_hex(), "ffffffffffffffff");
  EXPECT_EQ(Bignum(1).bit_length(), 1u);
  EXPECT_EQ(Bignum(0x100).bit_length(), 9u);
}

TEST(Bignum, BytesRoundTrip) {
  util::Xoshiro rng(1);
  for (int i = 0; i < 50; ++i) {
    Bytes raw = rng.bytes(1 + rng.below(40));
    raw[0] |= 1;  // avoid leading zero ambiguity
    const Bignum n = Bignum::from_bytes(raw);
    EXPECT_EQ(n.to_bytes(), raw);
  }
}

TEST(Bignum, LeadingZerosCanonicalized) {
  const Bytes padded = {0x00, 0x00, 0x12, 0x34};
  EXPECT_EQ(Bignum::from_bytes(padded), Bignum(0x1234));
}

TEST(Bignum, HexRoundTrip) {
  auto n = Bignum::from_hex("deadbeefcafebabe0123456789abcdef");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->to_hex(), "deadbeefcafebabe0123456789abcdef");
}

TEST(Bignum, HexRejectsGarbage) {
  EXPECT_FALSE(Bignum::from_hex("xyz").ok());
}

TEST(Bignum, PaddedBytes) {
  auto padded = Bignum(0x1234).to_bytes_padded(4);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, (Bytes{0x00, 0x00, 0x12, 0x34}));
  EXPECT_FALSE(Bignum(0x123456).to_bytes_padded(2).ok());
}

TEST(Bignum, Comparisons) {
  EXPECT_LT(Bignum(3), Bignum(5));
  EXPECT_GT(Bignum(1) << 64, Bignum(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(Bignum(7), Bignum(7));
}

TEST(Bignum, AdditionCarries) {
  const Bignum max32(0xFFFFFFFFULL);
  EXPECT_EQ(max32 + Bignum(1), Bignum(0x100000000ULL));
  const Bignum big = (Bignum(1) << 128) - Bignum(1);
  EXPECT_EQ((big + Bignum(1)).bit_length(), 129u);
}

TEST(Bignum, SubtractionBorrows) {
  EXPECT_EQ(Bignum(0x100000000ULL) - Bignum(1), Bignum(0xFFFFFFFFULL));
  EXPECT_EQ(Bignum(5) - Bignum(5), Bignum());
  EXPECT_THROW(Bignum(3) - Bignum(4), Error);
}

TEST(Bignum, MultiplicationKnown) {
  EXPECT_EQ(Bignum(0xFFFFFFFFULL) * Bignum(0xFFFFFFFFULL),
            Bignum(0xFFFFFFFE00000001ULL));
  EXPECT_EQ(Bignum(12345) * Bignum(), Bignum());
}

TEST(Bignum, ShiftsInverse) {
  util::Xoshiro rng(2);
  for (int i = 0; i < 30; ++i) {
    const Bignum n = rand_bignum(rng, 24);
    const std::size_t shift = rng.below(100);
    EXPECT_EQ((n << shift) >> shift, n);
  }
}

TEST(Bignum, ShiftEqualsMultiplyByPowerOfTwo) {
  const Bignum n(0x1234567890ABCDEFULL);
  EXPECT_EQ(n << 5, n * Bignum(32));
}

TEST(Bignum, DivisionByZeroThrows) {
  EXPECT_THROW(Bignum(5).divmod(Bignum()), Error);
}

TEST(Bignum, DivModIdentityProperty) {
  // a == q*b + r with r < b, across random operand sizes (hits both the
  // single-limb fast path and Knuth D, including the add-back case space).
  util::Xoshiro rng(3);
  for (int i = 0; i < 300; ++i) {
    const Bignum a = rand_bignum(rng, 32);
    Bignum b = rand_bignum(rng, 16);
    if (b.is_zero()) b = Bignum(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(Bignum, DivModSmallDivisorFastPath) {
  const Bignum a = (Bignum(1) << 100) + Bignum(12345);
  const auto [q, r] = a.divmod(Bignum(7));
  EXPECT_EQ(q * Bignum(7) + r, a);
  EXPECT_LT(r, Bignum(7));
}

TEST(Bignum, KnuthDAddBackCases) {
  // Crafted operands that drive Algorithm D's rare "add back" correction
  // (q_hat estimated one too large). Classic trigger family: u with a
  // high limb pattern just below the divisor's leading limbs.
  struct Case {
    const char* u;
    const char* v;
  };
  const Case cases[] = {
      // Knuth's own add-back example family (base 2^32).
      {"7fffffff800000010000000000000000", "800000008000000200000005"},
      {"8000000000000000fffffffe00000000", "80000000ffffffff"},
      {"00008000000000000000fffe00000000", "800000000000ffff"},
  };
  for (const Case& c : cases) {
    const auto u = *crypto::Bignum::from_hex(c.u);
    const auto v = *crypto::Bignum::from_hex(c.v);
    const auto [q, r] = u.divmod(v);
    EXPECT_LT(r, v) << c.u;
    EXPECT_EQ(q * v + r, u) << c.u;
  }
}

TEST(Bignum, DivisorWithManyEqualLimbs) {
  // Equal leading limbs stress the q_hat refinement loop.
  const auto u = *crypto::Bignum::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffff");
  const auto v = *crypto::Bignum::from_hex("ffffffffffffffffffffffff");
  const auto [q, r] = u.divmod(v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(Bignum, ModOperator) {
  EXPECT_EQ(Bignum(17) % Bignum(5), Bignum(2));
  EXPECT_EQ(Bignum(4) % Bignum(5), Bignum(4));
}

TEST(Bignum, MulModMatchesDirect) {
  util::Xoshiro rng(4);
  for (int i = 0; i < 50; ++i) {
    const Bignum a = rand_bignum(rng, 16);
    const Bignum b = rand_bignum(rng, 16);
    Bignum m = rand_bignum(rng, 8);
    if (m.is_zero()) m = Bignum(97);
    EXPECT_EQ(a.mulmod(b, m), (a * b) % m);
  }
}

TEST(Bignum, PowModKnownValues) {
  EXPECT_EQ(Bignum(2).powmod(Bignum(10), Bignum(1000)), Bignum(24));
  EXPECT_EQ(Bignum(5).powmod(Bignum(117), Bignum(19)), Bignum(1));
  EXPECT_EQ(Bignum(7).powmod(Bignum(), Bignum(13)), Bignum(1));  // x^0 = 1
  EXPECT_EQ(Bignum(7).powmod(Bignum(5), Bignum(1)), Bignum());   // mod 1
}

// Right-to-left square-and-multiply on plain products and remainders: the
// reference every powmod result is checked against.
Bignum reference_powmod(const Bignum& base, const Bignum& exponent,
                        const Bignum& m) {
  Bignum r = Bignum(1) % m;
  Bignum b = base % m;
  for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
    if (exponent.bit(i)) r = (r * b) % m;
    b = (b * b) % m;
  }
  return r;
}

// A modulus of exactly `limbs` 32-bit limbs with the given parity; every
// third one has a tiny top limb.
Bignum modulus_with_limbs(util::Xoshiro& rng, std::size_t limbs, bool odd) {
  Bytes raw = rng.bytes(4 * limbs);
  raw[3] |= 1;  // top limb nonzero
  if (rng.below(3) == 0) raw[0] = raw[1] = raw[2] = 0;
  if (odd) raw.back() |= 1;
  else raw.back() &= 0xFE;
  if (limbs == 1 && raw.back() < 2) raw.back() = odd ? 3 : 2;
  return Bignum::from_bytes(raw);
}

// A random exponent of exactly `bytes` bytes, top bit set.
Bignum exponent_with_bytes(util::Xoshiro& rng, std::size_t bytes) {
  Bytes raw = rng.bytes(bytes);
  raw[0] |= 0x80;
  return Bignum::from_bytes(raw);
}

TEST(Bignum, PowModMatchesSquareAndMultiply) {
  util::Xoshiro rng(15);
  std::vector<Bignum> moduli = {Bignum(1), Bignum(2), Bignum(3),
                                (Bignum(1) << 64) - Bignum(1),
                                (Bignum(1) << 768) - Bignum(1),
                                (Bignum(1) << 768) + Bignum(1),
                                Bignum(1) << 767};
  for (const std::size_t limbs : {1u, 2u, 3u, 5u, 7u, 24u})
    for (const bool odd : {true, false})
      for (int k = 0; k < 3; ++k)
        moduli.push_back(modulus_with_limbs(rng, limbs, odd));

  std::size_t checked = 0;
  for (const Bignum& m : moduli) {
    const std::size_t m_bytes = (m.bit_length() + 7) / 8;
    const std::vector<Bignum> bases = {
        Bignum(), Bignum(1), m - Bignum(1), m,
        Bignum::from_bytes(rng.bytes(m_bytes)) % m,
        m + Bignum::from_bytes(rng.bytes(m_bytes)),
        Bignum::from_bytes(rng.bytes(2 * m_bytes + 3))};
    const std::vector<Bignum> exponents = {
        Bignum(), Bignum(1), Bignum(2), Bignum(65537),
        Bignum(1 + rng.below(1u << 20)),
        exponent_with_bytes(rng, 8),   // 64 bits
        (Bignum(1) << 64) + exponent_with_bytes(rng, 8),  // 65 bits
        exponent_with_bytes(rng, 96)};  // 768 bits
    for (const Bignum& base : bases)
      for (const Bignum& e : exponents) {
        EXPECT_EQ(base.powmod(e, m), reference_powmod(base, e, m))
            << "base " << base.to_hex() << " exp " << e.to_hex() << " mod "
            << m.to_hex();
        ++checked;
      }
  }
  EXPECT_EQ(checked, 7u * 8u * moduli.size());
}

TEST(Bignum, PowModFermat) {
  // a^(p-1) = 1 mod p for prime p and gcd(a,p)=1.
  const Bignum p(1000003);
  util::Xoshiro rng(5);
  for (int i = 0; i < 20; ++i) {
    const Bignum a(2 + rng.below(1000000));
    EXPECT_EQ(a.powmod(p - Bignum(1), p), Bignum(1));
  }
}

TEST(Bignum, GcdKnown) {
  EXPECT_EQ(Bignum::gcd(Bignum(48), Bignum(36)), Bignum(12));
  EXPECT_EQ(Bignum::gcd(Bignum(17), Bignum(13)), Bignum(1));
  EXPECT_EQ(Bignum::gcd(Bignum(0), Bignum(5)), Bignum(5));
}

TEST(Bignum, InvModProperty) {
  util::Xoshiro rng(6);
  const Bignum m(1000003);  // prime modulus: everything nonzero invertible
  for (int i = 0; i < 50; ++i) {
    const Bignum a(1 + rng.below(1000002));
    auto inv = a.invmod(m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(a.mulmod(*inv, m), Bignum(1));
  }
}

TEST(Bignum, InvModNonCoprimeFails) {
  EXPECT_FALSE(Bignum(6).invmod(Bignum(9)).ok());
  EXPECT_FALSE(Bignum(4).invmod(Bignum(8)).ok());
}

TEST(Bignum, MillerRabinKnownPrimes) {
  HmacDrbg drbg(to_bytes("mr"));
  for (const std::uint64_t p : {2ULL, 3ULL, 5ULL, 104729ULL, 2147483647ULL})
    EXPECT_TRUE(Bignum(p).is_probable_prime(drbg)) << p;
}

TEST(Bignum, MillerRabinKnownComposites) {
  HmacDrbg drbg(to_bytes("mr"));
  // Includes Carmichael numbers 561 and 1105 (Fermat-test killers).
  for (const std::uint64_t c : {1ULL, 4ULL, 561ULL, 1105ULL, 104730ULL,
                                2147483647ULL * 3})
    EXPECT_FALSE(Bignum(c).is_probable_prime(drbg)) << c;
}

TEST(Bignum, GeneratePrimeHasExactBitLength) {
  HmacDrbg drbg(to_bytes("prime-gen"));
  for (const std::size_t bits : {16u, 64u, 128u}) {
    const Bignum p = Bignum::generate_prime(drbg, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_probable_prime(drbg));
  }
}

TEST(Bignum, RandomBelowInRange) {
  HmacDrbg drbg(to_bytes("rb"));
  const Bignum bound(1000);
  for (int i = 0; i < 100; ++i)
    EXPECT_LT(Bignum::random_below(drbg, bound), bound);
}

TEST(Bignum, RandomBitsExactWidth) {
  HmacDrbg drbg(to_bytes("rbits"));
  for (const std::size_t bits : {1u, 8u, 9u, 31u, 32u, 33u, 257u})
    EXPECT_EQ(Bignum::random_bits(drbg, bits).bit_length(), bits);
}

TEST(Bignum, BitAccess) {
  const Bignum n(0b1010);
  EXPECT_FALSE(n.bit(0));
  EXPECT_TRUE(n.bit(1));
  EXPECT_FALSE(n.bit(2));
  EXPECT_TRUE(n.bit(3));
  EXPECT_FALSE(n.bit(100));
}

}  // namespace
}  // namespace lateral::crypto
