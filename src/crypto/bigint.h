// Fixed-width 256-bit unsigned integers and constant-time Montgomery
// arithmetic modulo the two P-256 moduli (the field prime p and the group
// order n), sized for GuardNN's device identity (ECDSA) and session key
// exchange (ECDHE).
//
// Everything here except cmp() and the U256 bit queries runs in time that
// does not depend on operand values: carries, borrows and the final
// conditional subtraction are folded into masks, never branches, and the
// only loop bounds are the fixed limb count and public exponents.
#pragma once

#include <array>
#include <string>

#include "common/types.h"

namespace guardnn::crypto {

/// 256-bit unsigned integer; limbs are little-endian 64-bit words.
struct U256 {
  std::array<u64, 4> limb{};

  static U256 zero() { return {}; }
  static U256 one() {
    U256 v;
    v.limb[0] = 1;
    return v;
  }
  static U256 from_u64(u64 x) {
    U256 v;
    v.limb[0] = x;
    return v;
  }
  /// Parses a big-endian hex string (up to 64 hex digits).
  static U256 from_hex(const std::string& hex);
  /// Parses 32 big-endian bytes.
  static U256 from_bytes(BytesView bytes);

  /// Serializes to 32 big-endian bytes.
  Bytes to_bytes() const;
  std::string to_hex() const;

  bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool bit(unsigned i) const { return (limb[i / 64] >> (i % 64)) & 1; }
  /// Number of significant bits (0 for zero). Variable time.
  int bit_length() const;

  friend bool operator==(const U256& a, const U256& b) { return a.limb == b.limb; }
};

/// Three-way comparison: -1, 0 or +1. Variable time: public values only.
int cmp(const U256& a, const U256& b);

/// a + b; returns the carry-out (0 or 1).
constexpr u64 add(U256& out, const U256& a, const U256& b) {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 s =
        static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return carry;
}

/// a - b; returns the borrow-out (0 or 1).
constexpr u64 sub(U256& out, const U256& a, const U256& b) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d =
        static_cast<unsigned __int128>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

/// Returns `a` when `mask` is all ones and `b` when it is zero.
constexpr U256 ct_select(u64 mask, const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i) out.limb[i] = (a.limb[i] & mask) | (b.limb[i] & ~mask);
  return out;
}

/// Right shift by one bit.
U256 shr1(const U256& a);

/// (a + b) mod m and (a - b) mod m for a, b < m.
constexpr U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 sum;
  const u64 carry = add(sum, a, b);
  U256 reduced;
  const u64 borrow = sub(reduced, sum, m);
  // a + b < 2m, so one subtraction suffices; keep the sum only when it did
  // not overflow 256 bits and subtracting m borrowed (sum < m).
  return ct_select(0 - (borrow & ~carry & 1), sum, reduced);
}

constexpr U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 diff;
  const u64 borrow = sub(diff, a, b);
  U256 wrapped;
  add(wrapped, diff, m);
  return ct_select(0 - borrow, wrapped, diff);
}

/// An odd modulus m > 2^255 with its Montgomery constants for R = 2^256.
/// The two instances are the P-256 field prime and group order (p256.h);
/// the constants are derived from m alone at compile time.
struct MontModulus {
  U256 m;
  u64 m_inv = 0;  ///< -m^-1 mod 2^64.
  U256 one;       ///< R mod m: the Montgomery form of 1.
  U256 r2;        ///< R^2 mod m: converts into Montgomery form.

  constexpr explicit MontModulus(const U256& modulus) : m(modulus) {
    u64 inv = 1;  // Newton's iteration doubles the correct low bits each step.
    for (int i = 0; i < 6; ++i) inv *= 2 - m.limb[0] * inv;
    m_inv = 0 - inv;
    U256 neg_m;  // R mod m = R - m, because m > R/2.
    sub(neg_m, U256{}, m);
    one = neg_m;
    r2 = one;
    for (int i = 0; i < 256; ++i) r2 = add_mod(r2, r2, m);
  }
};

/// a * b * R^-1 mod m (CIOS). Requires a * b < m * R, e.g. a, b < m, or
/// a < R and b < m; the result is then fully reduced. Inline so that calls
/// with a constant modulus fold its limbs.
inline U256 mont_mul(const U256& a, const U256& b, const MontModulus& mod) {
  using u128 = unsigned __int128;
  const std::array<u64, 4>& m = mod.m.limb;
  // t holds the running (a * b[0..i] + q * m) / 2^(64 i); it stays below 2m,
  // so five limbs plus a carry bit are enough.
  u64 t[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 p = static_cast<u128>(a.limb[j]) * b.limb[i] + t[j] + carry;
      t[j] = static_cast<u64>(p);
      carry = static_cast<u64>(p >> 64);
    }
    const u128 top = static_cast<u128>(t[4]) + carry;
    t[4] = static_cast<u64>(top);
    const u64 t5 = static_cast<u64>(top >> 64);

    // Add q * m with q chosen so the low limb cancels, then drop that limb.
    const u64 q = t[0] * mod.m_inv;
    carry = static_cast<u64>((static_cast<u128>(q) * m[0] + t[0]) >> 64);
    for (int j = 1; j < 4; ++j) {
      const u128 p = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(p);
      carry = static_cast<u64>(p >> 64);
    }
    const u128 shifted = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<u64>(shifted);
    t[4] = t5 + static_cast<u64>(shifted >> 64);
  }
  const U256 low{{t[0], t[1], t[2], t[3]}};
  U256 reduced;
  const u64 borrow = sub(reduced, low, mod.m);
  // Keep t only when it is below m: no fifth limb and the subtraction borrowed.
  return ct_select(0 - (borrow & ~t[4] & 1), low, reduced);
}

/// a * R mod m, for any a < 2^256.
inline U256 to_mont(const U256& a, const MontModulus& mod) {
  return mont_mul(a, mod.r2, mod);
}

/// a * R^-1 mod m: leaves Montgomery form.
inline U256 from_mont(const U256& a, const MontModulus& mod) {
  return mont_mul(a, U256::one(), mod);
}

/// Montgomery-form inverse by Fermat's little theorem: a^(m-2) with a fixed
/// 4-bit window over the public exponent, so the time depends on m only.
/// Maps 0 to 0.
U256 mont_inv(const U256& a, const MontModulus& mod);

/// Plain-domain a * b mod m and a^-1 mod m (0 maps to 0), for a, b < m.
U256 mul_mod(const U256& a, const U256& b, const MontModulus& mod);
U256 inv_mod(const U256& a, const MontModulus& mod);

/// a mod m for any a < 2^256 (one conditional subtraction, since m > R/2).
constexpr U256 reduce_once(const U256& a, const MontModulus& mod) {
  U256 reduced;
  const u64 borrow = sub(reduced, a, mod.m);
  return ct_select(0 - borrow, a, reduced);
}

}  // namespace guardnn::crypto
