// FIG5 — Crypto building-block costs (paper §II-D: memory encryption,
// attestation signatures, accelerated cryptographic operations).
//
// Wall-clock throughput and latency of every from-scratch primitive the
// isolation substrates and protocols are built on. These are the "hardware
// requirements" costs of §II-D expressed in software.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "util/rng.h"

using namespace lateral;
using namespace lateral::crypto;

namespace {

void BM_Sha256(benchmark::State& state) {
  util::Xoshiro rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::hash(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  util::Xoshiro rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_Aes128Ctr(benchmark::State& state) {
  util::Xoshiro rng(3);
  Aes128Key key{};
  const Bytes key_bytes = rng.bytes(16);
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const Aes128 cipher(key);  // expanded once, as real callers hold it
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(aes128_ctr(cipher, ++nonce, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128Ctr)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_AeadSealOpen(benchmark::State& state) {
  const Aead aead(to_bytes("bench key"));
  util::Xoshiro rng(4);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    auto box = aead.seal(++nonce, {}, data);
    benchmark::DoNotOptimize(aead.open(box, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSealOpen)->Arg(64)->Arg(4096);

void BM_HmacDrbg(benchmark::State& state) {
  HmacDrbg drbg(to_bytes("seed"));
  for (auto _ : state)
    benchmark::DoNotOptimize(drbg.generate(static_cast<std::size_t>(state.range(0))));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacDrbg)->Arg(32)->Arg(1024);

void BM_RsaSign(benchmark::State& state) {
  HmacDrbg drbg(to_bytes("rsa-bench"));
  const RsaKeyPair kp =
      RsaKeyPair::generate(drbg, static_cast<std::size_t>(state.range(0)));
  const Bytes message = to_bytes("quote body");
  for (auto _ : state) benchmark::DoNotOptimize(rsa_sign(kp, message));
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_RsaVerify(benchmark::State& state) {
  HmacDrbg drbg(to_bytes("rsa-bench"));
  const RsaKeyPair kp =
      RsaKeyPair::generate(drbg, static_cast<std::size_t>(state.range(0)));
  const Bytes message = to_bytes("quote body");
  const Bytes sig = rsa_sign(kp, message);
  for (auto _ : state)
    benchmark::DoNotOptimize(rsa_verify(kp.pub, message, sig));
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void BM_RsaKeygen(benchmark::State& state) {
  std::uint64_t salt = 0;
  for (auto _ : state) {
    HmacDrbg drbg(to_bytes("keygen" + std::to_string(++salt)));
    benchmark::DoNotOptimize(
        RsaKeyPair::generate(drbg, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_DhExchange(benchmark::State& state) {
  HmacDrbg drbg(to_bytes("dh-bench"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair peer = DhKeyPair::generate(group, drbg);
  for (auto _ : state) {
    const DhKeyPair mine = DhKeyPair::generate(group, drbg);
    benchmark::DoNotOptimize(
        dh_shared_secret(group, mine.private_key, peer.public_key));
  }
}
BENCHMARK(BM_DhExchange)->Unit(benchmark::kMillisecond);

void BM_MerkleUpdate(benchmark::State& state) {
  MerkleTree tree(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro rng(5);
  const Bytes leaf = rng.bytes(64);
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.update_leaf(index++ % tree.leaf_count(), leaf));
  }
}
BENCHMARK(BM_MerkleUpdate)->Arg(64)->Arg(4096);

void BM_BignumPowmod(benchmark::State& state) {
  HmacDrbg drbg(to_bytes("powmod"));
  const Bignum m = Bignum::generate_prime(drbg, static_cast<std::size_t>(state.range(0)));
  const Bignum base = Bignum::random_below(drbg, m);
  const Bignum exp = Bignum::random_below(drbg, m);
  for (auto _ : state) benchmark::DoNotOptimize(base.powmod(exp, m));
}
BENCHMARK(BM_BignumPowmod)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== FIG5: crypto primitive costs (from-scratch software) ==\n");
  std::printf("context: these are the costs behind memory encryption\n");
  std::printf("(AES/16B), measurements (SHA/64B) and quotes (RSA sign).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
