#include "crypto/bigint.h"

#include <bit>
#include <stdexcept>

namespace guardnn::crypto {

U256 U256::from_hex(const std::string& hex) {
  if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: too long");
  std::string padded(64 - hex.size(), '0');
  padded += hex;
  return from_bytes(guardnn::from_hex(padded));
}

U256 U256::from_bytes(BytesView bytes) {
  if (bytes.size() != 32) throw std::invalid_argument("U256::from_bytes: need 32 bytes");
  U256 v;
  for (int i = 0; i < 4; ++i) v.limb[3 - i] = load_be64(bytes.data() + 8 * i);
  return v;
}

Bytes U256::to_bytes() const {
  Bytes out(32);
  for (int i = 0; i < 4; ++i) store_be64(out.data() + 8 * i, limb[3 - i]);
  return out;
}

std::string U256::to_hex() const { return guardnn::to_hex(to_bytes()); }

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0) return 64 * i + 64 - std::countl_zero(limb[i]);
  }
  return 0;
}

int cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] < b.limb[i]) return -1;
    if (a.limb[i] > b.limb[i]) return 1;
  }
  return 0;
}

U256 shr1(const U256& a) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limb[i] = a.limb[i] >> 1;
    if (i < 3) out.limb[i] |= a.limb[i + 1] << 63;
  }
  return out;
}

U256 mont_inv(const U256& a, const MontModulus& mod) {
  U256 exponent;
  sub(exponent, mod.m, U256::from_u64(2));
  std::array<U256, 16> powers;  // a^j in Montgomery form
  powers[0] = mod.one;
  for (std::size_t j = 1; j < powers.size(); ++j)
    powers[j] = mont_mul(powers[j - 1], a, mod);
  // The exponent is public, so indexing by its nibbles leaks nothing.
  U256 result = mod.one;
  for (int i = 63; i >= 0; --i) {
    for (int s = 0; s < 4; ++s) result = mont_mul(result, result, mod);
    const u64 nibble = (exponent.limb[i / 16] >> (4 * (i % 16))) & 0xf;
    result = mont_mul(result, powers[nibble], mod);
  }
  return result;
}

U256 mul_mod(const U256& a, const U256& b, const MontModulus& mod) {
  // (a b R^-1) R^2 R^-1 = a b.
  return mont_mul(mont_mul(a, b, mod), mod.r2, mod);
}

U256 inv_mod(const U256& a, const MontModulus& mod) {
  return from_mont(mont_inv(to_mont(a, mod), mod), mod);
}

}  // namespace guardnn::crypto
