// crypto.* per-layer metrics: the public crypto functions timed at the sizes
// the workloads use -- the 64 B sealed meter reading, the 4 KiB VPFS block,
// and RSA sign/verify and DH at the vendor key size (512-bit RSA, the
// 768-bit Oakley group the handshake uses).
#include <algorithm>

#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace lateral;

constexpr int kBlocks = 5;
constexpr std::int64_t kBlockNs = 20'000'000;

/// Median over kBlocks blocks of host ns per call; each block repeats `fn`
/// for at least kBlockNs. `calls` counts every call made.
template <typename Fn>
Metric ns_per_call(Fn&& fn, std::size_t& calls) {
  std::vector<double> per_call;
  std::uint64_t total = 0;
  for (int b = 0; b < kBlocks; ++b) {
    std::uint64_t n = 0;
    const std::int64_t start = now_ns();
    std::int64_t elapsed = 0;
    do {
      fn();
      ++n;
      elapsed = now_ns() - start;
    } while (elapsed < kBlockNs);
    per_call.push_back(static_cast<double>(elapsed) / static_cast<double>(n));
    total += n;
  }
  calls += total;
  std::sort(per_call.begin(), per_call.end());
  return {.value = per_call[kBlocks / 2], .samples = total};
}

Metric scaled(Metric m, double factor) {
  m.value *= factor;
  return m;
}

/// MB/s from ns per call on `bytes` bytes.
Metric throughput(Metric m, std::size_t bytes) {
  m.value = static_cast<double>(bytes) / 1e6 / (m.value / 1e9);
  return m;
}

// Results are folded into this so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::size_t crypto_probes(std::uint64_t seed, Metrics& layer, StepLog& log) {
  Rng rng(seed);
  const Bytes key = rng.bytes(32);
  const Bytes reading = rng.bytes(64);
  const Bytes block = rng.bytes(4096);
  const Bytes aad = rng.bytes(8);
  const crypto::Aead aead(key);
  std::size_t calls = 0;
  std::uint64_t sink = 0;
  std::uint64_t nonce = 0;

  layer["crypto.aead_seal_ns_64B"] = ns_per_call(
      [&] { sink += aead.seal(++nonce, aad, reading).tag[0]; }, calls);
  const crypto::SealedBox box = aead.seal(7, aad, reading);
  layer["crypto.aead_open_ns_64B"] = ns_per_call(
      [&] {
        auto plain = aead.open(box, aad);
        if (!plain || *plain != reading) log.fail("crypto: AEAD round trip");
      },
      calls);
  layer["crypto.hmac_ns_64B"] = ns_per_call(
      [&] { sink += crypto::hmac_sha256(key, reading)[0]; }, calls);

  const crypto::Aes128Key aes_key = *crypto::key_from_bytes(key);
  layer["crypto.aes_ctr_MBps"] = throughput(
      ns_per_call(
          [&] { sink += crypto::aes128_ctr(aes_key, ++nonce, block)[0]; },
          calls),
      block.size());
  layer["crypto.sha256_MBps"] = throughput(
      ns_per_call([&] { sink += crypto::Sha256::hash(block)[0]; }, calls),
      block.size());

  crypto::HmacDrbg drbg(key);
  const crypto::RsaKeyPair rsa = crypto::RsaKeyPair::generate(drbg, 512);
  const Bytes message = rng.bytes(64);
  layer["crypto.rsa_sign_us"] = scaled(
      ns_per_call([&] { sink += crypto::rsa_sign(rsa, message)[0]; }, calls),
      1e-3);
  const Bytes signature = crypto::rsa_sign(rsa, message);
  layer["crypto.rsa_verify_us"] = scaled(
      ns_per_call(
          [&] {
            if (!crypto::rsa_verify(rsa.pub, message, signature).ok())
              log.fail("crypto: RSA signature did not verify");
          },
          calls),
      1e-3);

  const crypto::DhGroup& group = crypto::DhGroup::oakley1();
  const crypto::DhKeyPair ours = crypto::DhKeyPair::generate(group, drbg);
  const crypto::DhKeyPair theirs = crypto::DhKeyPair::generate(group, drbg);
  const auto expected =
      crypto::dh_shared_secret(group, theirs.private_key, ours.public_key);
  layer["crypto.dh_us"] = scaled(
      ns_per_call(
          [&] {
            auto secret = crypto::dh_shared_secret(group, ours.private_key,
                                                   theirs.public_key);
            if (!secret || !expected || *secret != *expected)
              log.fail("crypto: DH secrets differ");
          },
          calls),
      1e-3);

  g_sink = g_sink + sink;
  return calls;
}

}  // namespace perfbench
