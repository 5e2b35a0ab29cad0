// Diffie-Hellman agreement and Merkle tree properties.
#include <gtest/gtest.h>

#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

TEST(Dh, SharedSecretAgrees) {
  HmacDrbg drbg(to_bytes("dh"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  auto sa = dh_shared_secret(group, a.private_key, b.public_key);
  auto sb = dh_shared_secret(group, b.private_key, a.public_key);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(*sa, *sb);
}

TEST(Dh, KnownAnswerAgreement) {
  // Both public values and the shared secret are fixed by the DRBG seed.
  HmacDrbg drbg(to_bytes("dh-known-answer"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  EXPECT_EQ(a.public_key.to_hex(),
            "ba93bb4ba1212d37aa5c4c4b37b7d372bfd6485d25eab1b71d2c9999be8bb28f"
            "d444c34d4d88410054b9c84a2ad99af3320713e399000347bd674ad13b4d848b"
            "44b7ebb698df06c505981a6bf28a1a1aef9b723718e92f05213136031b50afba");
  EXPECT_EQ(b.public_key.to_hex(),
            "86261f81e5df0df56129e6f66fe23d0c038990f4cd0c313c3f3d75d1241cfa7e"
            "d3138f7ad27127848b032dc91695088ea1821dbb15a2b33e669668501ac28671"
            "61e8c4c2317adf17e8e75855d2979c20f198152d563f9803267fda8bf6b548c0");
  auto secret = dh_shared_secret(group, a.private_key, b.public_key);
  ASSERT_TRUE(secret.ok());
  EXPECT_EQ(util::to_hex(*secret),
            "4ff3f0a1b2e39d6aaaebe5ce74d46bbe90d628e83df6789b0381a9f06e8719dc"
            "cd5d0ec51bece7ba781f17bf27de10cebb1e77be605a41727a52f67086b4a81b"
            "006f9ce48fc5358560dc5ea814afac9bb618a2c73ad1770f8cbb03bfceba83eb");
  EXPECT_EQ(dh_shared_secret(group, b.private_key, a.public_key).value(),
            *secret);
}

TEST(Dh, DistinctSessionsDistinctSecrets) {
  HmacDrbg drbg(to_bytes("dh2"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  const DhKeyPair c = DhKeyPair::generate(group, drbg);
  EXPECT_NE(*dh_shared_secret(group, a.private_key, b.public_key),
            *dh_shared_secret(group, a.private_key, c.public_key));
}

TEST(Dh, RejectsDegeneratePublicValues) {
  HmacDrbg drbg(to_bytes("dh3"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  EXPECT_FALSE(dh_shared_secret(group, a.private_key, Bignum(0)).ok());
  EXPECT_FALSE(dh_shared_secret(group, a.private_key, Bignum(1)).ok());
  EXPECT_FALSE(
      dh_shared_secret(group, a.private_key, group.p - Bignum(1)).ok());
  EXPECT_FALSE(dh_shared_secret(group, a.private_key, group.p).ok());
}

TEST(Dh, SecretIsFixedWidth) {
  HmacDrbg drbg(to_bytes("dh4"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  auto s = dh_shared_secret(group, a.private_key, b.public_key);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), (group.p.bit_length() + 7) / 8);
}

TEST(Dh, PublicKeyInGroup) {
  HmacDrbg drbg(to_bytes("dh5"));
  const DhGroup& group = DhGroup::oakley1();
  for (int i = 0; i < 5; ++i) {
    const DhKeyPair kp = DhKeyPair::generate(group, drbg);
    EXPECT_LT(kp.public_key, group.p);
    EXPECT_GT(kp.public_key, Bignum(1));
  }
}

TEST(Merkle, EmptyTreeHasStableRoot) {
  MerkleTree a(4), b(4);
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, UpdateChangesRoot) {
  MerkleTree tree(4);
  const Digest before = tree.root();
  ASSERT_TRUE(tree.update_leaf(2, to_bytes("data")).ok());
  EXPECT_NE(tree.root(), before);
}

TEST(Merkle, SameContentSameRoot) {
  MerkleTree a(8), b(8);
  for (std::size_t i = 0; i < 8; ++i) {
    const Bytes data = to_bytes("leaf-" + std::to_string(i));
    ASSERT_TRUE(a.update_leaf(i, data).ok());
    ASSERT_TRUE(b.update_leaf(i, data).ok());
  }
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, OrderOfUpdatesIrrelevant) {
  MerkleTree a(4), b(4);
  ASSERT_TRUE(a.update_leaf(0, to_bytes("x")).ok());
  ASSERT_TRUE(a.update_leaf(3, to_bytes("y")).ok());
  ASSERT_TRUE(b.update_leaf(3, to_bytes("y")).ok());
  ASSERT_TRUE(b.update_leaf(0, to_bytes("x")).ok());
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, ProofVerifies) {
  MerkleTree tree(8);
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_TRUE(tree.update_leaf(i, to_bytes("v" + std::to_string(i))).ok());
  for (std::size_t i = 0; i < 8; ++i) {
    auto proof = tree.prove(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::verify(tree.root(),
                                   to_bytes("v" + std::to_string(i)), *proof)
                    .ok());
  }
}

TEST(Merkle, ProofRejectsWrongData) {
  MerkleTree tree(4);
  ASSERT_TRUE(tree.update_leaf(1, to_bytes("real")).ok());
  auto proof = tree.prove(1);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(
      MerkleTree::verify(tree.root(), to_bytes("fake"), *proof).error(),
      Errc::verification_failed);
}

TEST(Merkle, ProofRejectsWrongPosition) {
  MerkleTree tree(4);
  ASSERT_TRUE(tree.update_leaf(0, to_bytes("a")).ok());
  ASSERT_TRUE(tree.update_leaf(1, to_bytes("b")).ok());
  auto proof = tree.prove(0);
  ASSERT_TRUE(proof.ok());
  proof->index = 1;  // leaf 0's data claimed at position 1
  // The sibling path for leaf 0 applied at index 1 folds in the wrong
  // order, so the computed root differs.
  EXPECT_FALSE(MerkleTree::verify(tree.root(), to_bytes("a"), *proof).ok());
}

TEST(Merkle, OutOfRangeLeafRejected) {
  MerkleTree tree(4);
  EXPECT_FALSE(tree.update_leaf(4, to_bytes("x")).ok());
  EXPECT_FALSE(tree.prove(4).ok());
}

TEST(Merkle, NonPowerOfTwoLeafCount) {
  MerkleTree tree(5);
  EXPECT_EQ(tree.leaf_count(), 5u);
  ASSERT_TRUE(tree.update_leaf(4, to_bytes("last")).ok());
  auto proof = tree.prove(4);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), to_bytes("last"), *proof).ok());
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // A leaf containing what looks like two concatenated digests must not
  // equal an interior node hash (0x00 vs 0x01 tags).
  const Digest l = MerkleTree::leaf_hash(to_bytes("x"));
  const Digest r = MerkleTree::leaf_hash(to_bytes("y"));
  Bytes fake;
  fake.insert(fake.end(), l.begin(), l.end());
  fake.insert(fake.end(), r.begin(), r.end());
  EXPECT_NE(MerkleTree::leaf_hash(fake), MerkleTree::node_hash(l, r));
}

class MerkleSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizeTest, AllProofsVerifyAtSize) {
  const std::size_t n = GetParam();
  MerkleTree tree(n);
  util::Xoshiro rng(n);
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(rng.bytes(16));
    ASSERT_TRUE(tree.update_leaf(i, leaves.back()).ok());
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto proof = tree.prove(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], *proof).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 31, 64));

}  // namespace
}  // namespace lateral::crypto
