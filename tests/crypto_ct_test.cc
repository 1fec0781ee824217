// Timing-leak check in the style of dudect (Reparaz, Balasch and
// Verbauwhede, "Dude, is my code constant time?", DATE 2017) for the two
// operations that run on a secret P-256 scalar: ECDH (the ephemeral private
// key) and ECDSA signing (the identity key, and the nonce derived from it).
//
// Each operation runs on two classes of scalar in a random interleaving: a
// short fixed scalar, and uniformly random scalars in [1, n). Welch's t-test
// then compares the two timing distributions. Code whose running time
// follows the scalar (a double-and-add that stops at the top set bit, a
// reduction that loops on the operand's size) reaches |t| in the tens or
// hundreds at this sample count; constant-time code stays at the noise
// floor. The classes share one interleaved schedule, so machine load drifts
// over both alike; timings above the pooled 90th percentile (preemptions,
// interrupts) are cropped, as dudect does, before the test. Each operation
// gets about the same time budget (~0.6 s in an optimized build), so the
// cheaper signing takes three times the samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"

namespace guardnn::crypto {
namespace {

// |t| above 4.5 is dudect's threshold for "probably leaking"; a leaking
// implementation scores far above it here (see the file comment).
constexpr double kMaxAbsT = 4.5;
constexpr std::size_t kWarmup = 16;

// A short fixed scalar: 16 significant bits.
const U256 kFixedScalar = U256::from_u64(0xb5a3);

struct Timing {
  bool fixed;
  double ns;
};

U256 random_scalar(HmacDrbg& drbg) {
  for (;;) {
    const U256 k = U256::from_bytes(drbg.generate(32));
    if (!k.is_zero() && cmp(k, p256().n) < 0) return k;
  }
}

// Welch's t statistic of the fixed class against the random class, over the
// timings at or below the pooled 90th percentile.
double welch_t(const std::vector<Timing>& timings) {
  std::vector<double> pooled;
  for (const Timing& t : timings) pooled.push_back(t.ns);
  std::nth_element(pooled.begin(), pooled.begin() + pooled.size() * 9 / 10, pooled.end());
  const double crop = pooled[pooled.size() * 9 / 10];

  double n[2] = {0, 0}, mean[2] = {0, 0}, m2[2] = {0, 0};  // Welford, per class
  for (const Timing& t : timings) {
    if (t.ns > crop) continue;
    const int c = t.fixed ? 0 : 1;
    n[c] += 1;
    const double delta = t.ns - mean[c];
    mean[c] += delta / n[c];
    m2[c] += delta * (t.ns - mean[c]);
  }
  const double var0 = m2[0] / (n[0] - 1);
  const double var1 = m2[1] / (n[1] - 1);
  return (mean[0] - mean[1]) / std::sqrt(var0 / n[0] + var1 / n[1]);
}

// Times `op` on an interleaved fixed/random schedule of `samples` scalars.
double leak_t(const std::function<u64(const U256&)>& op, std::size_t samples, u64 seed) {
  Xoshiro256 rng(seed);
  HmacDrbg drbg(Bytes{0xc7, static_cast<u8>(seed)});
  std::vector<U256> scalars(samples);
  std::vector<Timing> timings(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    timings[i].fixed = (rng.next() & 1) != 0;
    scalars[i] = timings[i].fixed ? kFixedScalar : random_scalar(drbg);
  }
  u64 sink = 0;  // consumes every result so no call is optimized away
  for (std::size_t i = 0; i < kWarmup; ++i) sink ^= op(scalars[i]);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto start = std::chrono::steady_clock::now();
    sink ^= op(scalars[i]);
    const auto stop = std::chrono::steady_clock::now();
    timings[i].ns = std::chrono::duration<double, std::nano>(stop - start).count();
  }
  EXPECT_NE(sink, 0xdeadbeefULL);  // keeps `sink` observable
  return welch_t(timings);
}

TEST(ConstantTime, EcdhSharedSecretTimingIndependentOfScalar) {
  HmacDrbg drbg(Bytes{0xec, 0xd4});
  const AffinePoint peer = ecdh_generate_key(drbg).public_key;
  const double t = leak_t(
      [&](const U256& k) { return ecdh_shared_secret(k, peer).limb[0]; }, 1200, 1);
  RecordProperty("abs_t", std::to_string(std::fabs(t)));
  std::printf("ecdh_shared_secret: |t| = %.2f (threshold %.1f)\n", std::fabs(t), kMaxAbsT);
  EXPECT_LT(std::fabs(t), kMaxAbsT);
}

TEST(ConstantTime, EcdsaSignTimingIndependentOfPrivateKey) {
  const Sha256Digest digest = Sha256::hash(Bytes{'r', 'e', 'p', 'o', 'r', 't'});
  const double t = leak_t(
      [&](const U256& d) { return ecdsa_sign_digest(d, digest).s.limb[0]; }, 3600, 2);
  RecordProperty("abs_t", std::to_string(std::fabs(t)));
  std::printf("ecdsa_sign_digest: |t| = %.2f (threshold %.1f)\n", std::fabs(t), kMaxAbsT);
  EXPECT_LT(std::fabs(t), kMaxAbsT);
}

}  // namespace
}  // namespace guardnn::crypto
