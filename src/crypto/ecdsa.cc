#include "crypto/ecdsa.h"

#include <stdexcept>

#include "crypto/hmac.h"

namespace guardnn::crypto {
namespace {

// Reduces a 32-byte digest into a scalar mod n (the digest is as wide as n,
// so one conditional subtraction reduces it).
U256 digest_to_scalar(const Sha256Digest& digest) {
  return reduce_once(U256::from_bytes(BytesView(digest.data(), digest.size())),
                     kP256Order);
}

// Deterministic nonce derivation in the spirit of RFC 6979 (not bit-exact):
// an HMAC-DRBG keyed by (private key || digest) generates candidate nonces.
U256 derive_nonce(const U256& private_key, const Sha256Digest& digest) {
  Bytes seed = private_key.to_bytes();
  seed.insert(seed.end(), digest.begin(), digest.end());
  HmacDrbg drbg(seed, Bytes{'e', 'c', 'd', 's', 'a', '-', 'k'});
  secure_zero(seed.data(), seed.size());
  for (;;) {
    Bytes candidate = drbg.generate(32);
    const U256 k = U256::from_bytes(candidate);
    secure_zero(candidate.data(), candidate.size());
    U256 unused;
    const u64 below_n = sub(unused, k, kP256Order.m);
    if (!k.is_zero() && below_n) return k;
  }
}

}  // namespace

Bytes EcdsaSignature::to_bytes() const {
  Bytes out = r.to_bytes();
  const Bytes sb = s.to_bytes();
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

std::optional<EcdsaSignature> EcdsaSignature::from_bytes(BytesView bytes) {
  if (bytes.size() != 64) return std::nullopt;
  EcdsaSignature sig;
  sig.r = U256::from_bytes(bytes.subspan(0, 32));
  sig.s = U256::from_bytes(bytes.subspan(32, 32));
  return sig;
}

EcdsaKeyPair ecdsa_generate_key(HmacDrbg& drbg) {
  const U256& n = p256().n;
  for (;;) {
    const Bytes raw = drbg.generate(32);
    U256 d = U256::from_bytes(raw);
    if (d.is_zero() || cmp(d, n) >= 0) continue;
    EcdsaKeyPair kp;
    kp.private_key = d;
    kp.public_key = ec_scalar_base_mult(d);
    return kp;
  }
}

EcdsaSignature ecdsa_sign_digest(const U256& private_key, const Sha256Digest& digest) {
  const U256 z = digest_to_scalar(digest);
  const U256 d = reduce_once(private_key, kP256Order);
  Sha256Digest tweaked = digest;
  for (;;) {
    U256 k = derive_nonce(private_key, tweaked);
    const U256 r = reduce_once(ec_scalar_base_mult(k).x, kP256Order);
    U256 k_inv = inv_mod(k, kP256Order);
    const U256 s = mul_mod(k_inv, add_mod(z, mul_mod(r, d, kP256Order), kP256Order.m),
                           kP256Order);
    secure_zero(&k, sizeof(k));
    secure_zero(&k_inv, sizeof(k_inv));
    // Both are extremely unlikely; re-derive the nonce with a tweak.
    if (r.is_zero()) {
      tweaked[0] ^= 0x01;
      continue;
    }
    if (s.is_zero()) {
      tweaked[0] ^= 0x02;
      continue;
    }
    return EcdsaSignature{r, s};
  }
}

EcdsaSignature ecdsa_sign(const U256& private_key, BytesView message) {
  return ecdsa_sign_digest(private_key, Sha256::hash(message));
}

bool ecdsa_verify_digest(const AffinePoint& public_key, const Sha256Digest& digest,
                         const EcdsaSignature& sig) {
  const U256& n = p256().n;
  if (public_key.infinity || !on_curve(public_key)) return false;
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;

  const U256 z = digest_to_scalar(digest);
  const U256 s_inv = inv_mod(sig.s, kP256Order);
  const U256 u1 = mul_mod(z, s_inv, kP256Order);
  const U256 u2 = mul_mod(sig.r, s_inv, kP256Order);
  const AffinePoint point =
      ec_add(ec_scalar_base_mult(u1), ec_scalar_mult(u2, public_key));
  if (point.infinity) return false;
  return reduce_once(point.x, kP256Order) == sig.r;
}

bool ecdsa_verify(const AffinePoint& public_key, BytesView message,
                  const EcdsaSignature& sig) {
  return ecdsa_verify_digest(public_key, Sha256::hash(message), sig);
}

}  // namespace guardnn::crypto
