// Reference arithmetic for differential tests of the constant-time P-256
// code: generic-modulus bit-serial reduction (shift-and-subtract long
// division), square-and-multiply exponentiation, and a Jacobian-coordinate
// double-and-add scalar multiply. It is slow and branches on its operands,
// which is what makes it independent of the Montgomery/complete-formula
// implementation under test; it must never be used on secrets.
#pragma once

#include <array>
#include <bit>
#include <stdexcept>

#include "crypto/bigint.h"
#include "crypto/p256.h"

namespace guardnn::crypto::oracle {

/// 512-bit product container for the multiply-then-reduce path.
struct U512 {
  std::array<u64, 8> limb{};
  int bit_length() const {
    for (int i = 7; i >= 0; --i) {
      if (limb[i] != 0) return 64 * i + 64 - std::countl_zero(limb[i]);
    }
    return 0;
  }
};

inline U512 widen(const U256& a) {
  U512 w;
  for (int i = 0; i < 4; ++i) w.limb[i] = a.limb[i];
  return w;
}

/// Full 256x256 -> 512-bit schoolbook multiply.
inline U512 mul_wide(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] + out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<u64>(p);
      carry = static_cast<u64>(p >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

namespace detail {

// m << shift as 8 limbs.
inline std::array<u64, 8> shifted(const U256& m, int shift) {
  const int word_shift = shift / 64;
  const int bit_shift = shift % 64;
  std::array<u64, 8> sm{};
  u64 prev = 0;
  for (int i = 0; i < 5; ++i) {
    const u64 mw = i < 4 ? m.limb[i] : 0;
    const u64 s = bit_shift == 0 ? mw : (mw << bit_shift) | (prev >> (64 - bit_shift));
    prev = mw;
    if (i + word_shift < 8) sm[i + word_shift] = s;
  }
  return sm;
}

}  // namespace detail

/// x mod m via binary long division. m must be non-zero.
inline U256 mod_reduce(const U512& x, const U256& m) {
  if (m.is_zero()) throw std::invalid_argument("mod_reduce: zero modulus");
  U512 rem = x;
  const int mbits = m.bit_length();
  int xbits = rem.bit_length();
  while (xbits >= mbits) {
    int shift = xbits - mbits;
    auto sm = detail::shifted(m, shift);
    bool less = false;
    for (int i = 7; i >= 0; --i) {
      if (rem.limb[i] != sm[i]) {
        less = rem.limb[i] < sm[i];
        break;
      }
    }
    if (less) {
      if (shift == 0) break;
      sm = detail::shifted(m, --shift);
    }
    u64 borrow = 0;
    for (int i = 0; i < 8; ++i) {
      const unsigned __int128 d =
          static_cast<unsigned __int128>(rem.limb[i]) - sm[i] - borrow;
      rem.limb[i] = static_cast<u64>(d);
      borrow = (d >> 64) ? 1 : 0;
    }
    xbits = rem.bit_length();
  }
  U256 out;
  for (int i = 0; i < 4; ++i) out.limb[i] = rem.limb[i];
  return out;
}

/// Modular helpers for any non-zero modulus; operands must be < m.
inline U256 mod_add(const U256& a, const U256& b, const U256& m) {
  U256 s;
  const u64 carry = add(s, a, b);
  if (carry || cmp(s, m) >= 0) sub(s, s, m);
  return s;
}

inline U256 mod_sub(const U256& a, const U256& b, const U256& m) {
  U256 d;
  if (sub(d, a, b)) add(d, d, m);
  return d;
}

inline U256 mod_mul(const U256& a, const U256& b, const U256& m) {
  return mod_reduce(mul_wide(a, b), m);
}

/// a^e mod m (square-and-multiply).
inline U256 mod_pow(const U256& a, const U256& e, const U256& m) {
  U256 result = U256::one();
  U256 base = a;
  for (int i = 0; i < e.bit_length(); ++i) {
    if (e.bit(static_cast<unsigned>(i))) result = mod_mul(result, base, m);
    base = mod_mul(base, base, m);
  }
  return result;
}

/// a^-1 mod m for prime m (Fermat's little theorem). a must be non-zero.
inline U256 mod_inv(const U256& a, const U256& m) {
  if (a.is_zero()) throw std::invalid_argument("mod_inv: zero has no inverse");
  U256 e;
  sub(e, m, U256::from_u64(2));
  return mod_pow(a, e, m);
}

/// Jacobian coordinates: (X, Y, Z) represents affine (X/Z^2, Y/Z^3); Z == 0
/// is infinity.
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;

  bool is_infinity() const { return z.is_zero(); }

  static JacobianPoint from_affine(const AffinePoint& a) {
    if (a.infinity) return JacobianPoint{};
    return JacobianPoint{a.x, a.y, U256::one()};
  }
};

inline AffinePoint to_affine(const JacobianPoint& j) {
  if (j.is_infinity()) return AffinePoint::at_infinity();
  const U256& p = p256().p;
  const U256 z_inv = mod_inv(j.z, p);
  const U256 z_inv2 = mod_mul(z_inv, z_inv, p);
  AffinePoint out;
  out.x = mod_mul(j.x, z_inv2, p);
  out.y = mod_mul(j.y, mod_mul(z_inv2, z_inv, p), p);
  return out;
}

// Point doubling for a = -3 curves (dbl-2001-b formulas).
inline JacobianPoint jacobian_double(const JacobianPoint& q) {
  if (q.is_infinity() || q.y.is_zero()) return JacobianPoint{};
  const U256& p = p256().p;
  const U256 z2 = mod_mul(q.z, q.z, p);
  const U256 m = mod_mul(U256::from_u64(3),
                         mod_mul(mod_sub(q.x, z2, p), mod_add(q.x, z2, p), p), p);
  const U256 y2 = mod_mul(q.y, q.y, p);
  const U256 s = mod_mul(U256::from_u64(4), mod_mul(q.x, y2, p), p);
  JacobianPoint out;
  out.x = mod_sub(mod_mul(m, m, p), mod_add(s, s, p), p);
  const U256 y4_8 = mod_mul(U256::from_u64(8), mod_mul(y2, y2, p), p);
  out.y = mod_sub(mod_mul(m, mod_sub(s, out.x, p), p), y4_8, p);
  out.z = mod_mul(U256::from_u64(2), mod_mul(q.y, q.z, p), p);
  return out;
}

inline JacobianPoint jacobian_add(const JacobianPoint& a, const JacobianPoint& b) {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  const U256& p = p256().p;
  const U256 z1z1 = mod_mul(a.z, a.z, p);
  const U256 z2z2 = mod_mul(b.z, b.z, p);
  const U256 u1 = mod_mul(a.x, z2z2, p);
  const U256 u2 = mod_mul(b.x, z1z1, p);
  const U256 s1 = mod_mul(a.y, mod_mul(z2z2, b.z, p), p);
  const U256 s2 = mod_mul(b.y, mod_mul(z1z1, a.z, p), p);
  if (u1 == u2) {
    if (s1 == s2) return jacobian_double(a);
    return JacobianPoint{};
  }
  const U256 h = mod_sub(u2, u1, p);
  const U256 r = mod_sub(s2, s1, p);
  const U256 h2 = mod_mul(h, h, p);
  const U256 h3 = mod_mul(h2, h, p);
  const U256 u1h2 = mod_mul(u1, h2, p);
  JacobianPoint out;
  out.x = mod_sub(mod_sub(mod_mul(r, r, p), h3, p), mod_add(u1h2, u1h2, p), p);
  out.y = mod_sub(mod_mul(r, mod_sub(u1h2, out.x, p), p), mod_mul(s1, h3, p), p);
  out.z = mod_mul(h, mod_mul(a.z, b.z, p), p);
  return out;
}

inline AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) {
  return to_affine(
      jacobian_add(JacobianPoint::from_affine(a), JacobianPoint::from_affine(b)));
}

/// k*P by right-to-left double-and-add.
inline AffinePoint scalar_mult(const U256& k, const AffinePoint& point) {
  JacobianPoint result{};
  JacobianPoint base = JacobianPoint::from_affine(point);
  for (int i = 0; i < k.bit_length(); ++i) {
    if (k.bit(static_cast<unsigned>(i))) result = jacobian_add(result, base);
    base = jacobian_double(base);
  }
  return to_affine(result);
}

}  // namespace guardnn::crypto::oracle
