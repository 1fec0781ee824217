// NIST P-256 (secp256r1) elliptic-curve group operations.
//
// This is the public-key substrate for GuardNN's device identity: the
// manufacturer embeds a per-device ECDSA key pair (SK_Accel / PK_Accel) and
// signs the public key with its CA key; sessions are established with ECDHE
// (paper Section II-C, Table I).
//
// Scalar multiplication runs in constant time: points are kept in projective
// coordinates and combined only with the complete addition and doubling
// formulas of Renes, Costello and Batina (2016), which have no exceptional
// cases, and the scalar is consumed in fixed 4-bit windows whose table
// entries are fetched by a masked scan of the whole table.
#pragma once

#include <optional>

#include "crypto/bigint.h"

namespace guardnn::crypto {

/// Montgomery contexts for the field prime p and the group order n.
inline constexpr MontModulus kP256Field{
    U256{{0xffffffffffffffffULL, 0x00000000ffffffffULL, 0x0000000000000000ULL,
          0xffffffff00000001ULL}}};
inline constexpr MontModulus kP256Order{
    U256{{0xf3b9cac2fc632551ULL, 0xbce6faada7179e84ULL, 0xffffffffffffffffULL,
          0xffffffff00000000ULL}}};

/// Curve parameters for P-256: y^2 = x^3 - 3x + b over GF(p).
struct P256Params {
  U256 p;   ///< Field prime.
  U256 n;   ///< Group order.
  U256 b;   ///< Curve coefficient b.
  U256 gx;  ///< Generator x.
  U256 gy;  ///< Generator y.
};

const P256Params& p256();

/// Affine point; infinity is represented by `infinity == true`.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static AffinePoint at_infinity() {
    AffinePoint pt;
    pt.infinity = true;
    return pt;
  }

  friend bool operator==(const AffinePoint& a, const AffinePoint& b) {
    if (a.infinity || b.infinity) return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
  }
};

/// Returns true when the point satisfies the curve equation (or is infinity).
bool on_curve(const AffinePoint& pt);

/// Point addition (complete: handles doubling, inverses, infinity).
AffinePoint ec_add(const AffinePoint& a, const AffinePoint& b);

/// k*P in constant time: a fixed 4-bit window over all 256 bits of k, with
/// a 16-entry table of multiples of P built per call.
AffinePoint ec_scalar_mult(const U256& k, const AffinePoint& point);

/// k*G for the P-256 generator, in constant time: one table of j * 16^i * G
/// (64 windows x 16 entries, 96 KiB, built on first use) and 64 complete
/// additions, with no doublings.
AffinePoint ec_scalar_base_mult(const U256& k);

/// Serializes as uncompressed SEC1 (0x04 || X || Y), 65 bytes.
Bytes encode_point(const AffinePoint& pt);

/// Parses an uncompressed SEC1 point; returns nullopt when malformed or not
/// on the curve (defends the key-exchange against invalid-curve attacks).
std::optional<AffinePoint> decode_point(BytesView bytes);

}  // namespace guardnn::crypto
