#include "crypto/p256.h"

#include <stdexcept>

namespace guardnn::crypto {

const P256Params& p256() {
  static const P256Params params = [] {
    P256Params pr;
    pr.p = kP256Field.m;
    pr.n = kP256Order.m;
    pr.b = U256::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
    pr.gx = U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
    pr.gy = U256::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
    return pr;
  }();
  return params;
}

namespace {

// Field arithmetic on Montgomery-form elements of GF(p).
U256 fmul(const U256& a, const U256& b) { return mont_mul(a, b, kP256Field); }
U256 fadd(const U256& a, const U256& b) { return add_mod(a, b, kP256Field.m); }
U256 fsub(const U256& a, const U256& b) { return sub_mod(a, b, kP256Field.m); }
U256 ftriple(const U256& a) { return fadd(fadd(a, a), a); }

const U256& curve_b() {
  static const U256 b = to_mont(p256().b, kP256Field);
  return b;
}

// Projective coordinates (X : Y : Z) for the affine point (X/Z, Y/Z), each
// coordinate in Montgomery form. The identity is (0 : 1 : 0).
struct ProjectivePoint {
  U256 x;
  U256 y;
  U256 z;
};

ProjectivePoint identity() { return {U256{}, kP256Field.one, U256{}}; }

ProjectivePoint from_affine(const AffinePoint& a) {
  if (a.infinity) return identity();
  return {to_mont(a.x, kP256Field), to_mont(a.y, kP256Field), kP256Field.one};
}

AffinePoint to_affine(const ProjectivePoint& pt) {
  AffinePoint out;
  out.infinity = pt.z.is_zero();
  const U256 z_inv = mont_inv(pt.z, kP256Field);  // 0 for the identity
  out.x = from_mont(fmul(pt.x, z_inv), kP256Field);
  out.y = from_mont(fmul(pt.y, z_inv), kP256Field);
  return out;
}

// Complete addition for a = -3 (Renes-Costello-Batina 2016, Algorithm 4):
// correct for every pair of inputs, doubling and the identity included.
ProjectivePoint point_add(const ProjectivePoint& p, const ProjectivePoint& q) {
  const U256 xx = fmul(p.x, q.x);
  const U256 yy = fmul(p.y, q.y);
  const U256 zz = fmul(p.z, q.z);
  const U256 xy_pairs = fsub(fmul(fadd(p.x, p.y), fadd(q.x, q.y)), fadd(xx, yy));
  const U256 yz_pairs = fsub(fmul(fadd(p.y, p.z), fadd(q.y, q.z)), fadd(yy, zz));
  const U256 xz_pairs = fsub(fmul(fadd(p.x, p.z), fadd(q.x, q.z)), fadd(xx, zz));

  const U256 bzz3 = ftriple(fsub(xz_pairs, fmul(curve_b(), zz)));
  const U256 yy_m_bzz3 = fsub(yy, bzz3);
  const U256 yy_p_bzz3 = fadd(yy, bzz3);

  const U256 zz3 = ftriple(zz);
  const U256 bxz3 = ftriple(fsub(fmul(curve_b(), xz_pairs), fadd(zz3, xx)));
  const U256 xx3_m_zz3 = fsub(ftriple(xx), zz3);

  return {fsub(fmul(yy_p_bzz3, xy_pairs), fmul(yz_pairs, bxz3)),
          fadd(fmul(yy_p_bzz3, yy_m_bzz3), fmul(xx3_m_zz3, bxz3)),
          fadd(fmul(yy_m_bzz3, yz_pairs), fmul(xy_pairs, xx3_m_zz3))};
}

// Complete doubling for a = -3 (Renes-Costello-Batina 2016, Algorithm 6).
ProjectivePoint point_double(const ProjectivePoint& p) {
  const U256 xx = fmul(p.x, p.x);
  const U256 yy = fmul(p.y, p.y);
  const U256 zz = fmul(p.z, p.z);
  const U256 xy = fmul(p.x, p.y);
  const U256 xy2 = fadd(xy, xy);
  const U256 xz = fmul(p.x, p.z);
  const U256 xz2 = fadd(xz, xz);

  const U256 bzz3 = ftriple(fsub(fmul(curve_b(), zz), xz2));
  const U256 yy_m_bzz3 = fsub(yy, bzz3);
  const U256 yy_p_bzz3 = fadd(yy, bzz3);

  const U256 zz3 = ftriple(zz);
  const U256 bxz6 = ftriple(fsub(fmul(curve_b(), xz2), fadd(zz3, xx)));
  const U256 xx3_m_zz3 = fsub(ftriple(xx), zz3);

  const U256 yz = fmul(p.y, p.z);
  const U256 yz2 = fadd(yz, yz);
  const U256 yz2_yy = fmul(yz2, yy);
  const U256 yz8_yy = fadd(fadd(yz2_yy, yz2_yy), fadd(yz2_yy, yz2_yy));
  return {fsub(fmul(yy_m_bzz3, xy2), fmul(bxz6, yz2)),
          fadd(fmul(yy_p_bzz3, yy_m_bzz3), fmul(xx3_m_zz3, bxz6)),
          yz8_yy};
}

// j * P for j = 0..15: the table one 4-bit window indexes.
using WindowTable = std::array<ProjectivePoint, 16>;

WindowTable window_table(const ProjectivePoint& p) {
  WindowTable table;
  table[0] = identity();
  table[1] = p;
  for (std::size_t j = 2; j < table.size(); ++j)
    table[j] = j % 2 == 0 ? point_double(table[j / 2]) : point_add(table[j - 1], p);
  return table;
}

// Reads table[index] by touching every entry and keeping one through a mask,
// so neither the memory access pattern nor the timing reveals the index.
ProjectivePoint lookup(const WindowTable& table, u64 index) {
  ProjectivePoint out{};
  for (u64 j = 0; j < table.size(); ++j) {
    const u64 diff = j ^ index;
    const u64 mask = ((diff | (0 - diff)) >> 63) - 1;  // all ones iff j == index
    for (int l = 0; l < 4; ++l) {
      out.x.limb[l] |= table[j].x.limb[l] & mask;
      out.y.limb[l] |= table[j].y.limb[l] & mask;
      out.z.limb[l] |= table[j].z.limb[l] & mask;
    }
  }
  return out;
}

// Window i of the scalar: bits 4i .. 4i+3.
u64 nibble(const U256& k, int i) { return (k.limb[i / 16] >> (4 * (i % 16))) & 0xf; }

constexpr int kWindows = 64;

ProjectivePoint scalar_mult(const U256& k, const ProjectivePoint& p) {
  const WindowTable table = window_table(p);
  ProjectivePoint acc = identity();
  for (int i = kWindows - 1; i >= 0; --i) {
    for (int d = 0; d < 4; ++d) acc = point_double(acc);
    acc = point_add(acc, lookup(table, nibble(k, i)));
  }
  return acc;
}

// windows[i][j] = j * 16^i * G, so k*G is the sum over i of
// windows[i][nibble i of k].
struct BaseTable {
  std::array<WindowTable, kWindows> windows;

  BaseTable() {
    AffinePoint g;
    g.x = p256().gx;
    g.y = p256().gy;
    ProjectivePoint base = from_affine(g);
    for (WindowTable& w : windows) {
      w = window_table(base);
      for (int d = 0; d < 4; ++d) base = point_double(base);
    }
  }
};

const BaseTable& base_table() {
  static const BaseTable table;
  return table;
}

}  // namespace

bool on_curve(const AffinePoint& pt) {
  if (pt.infinity) return true;
  const U256& p = kP256Field.m;
  if (cmp(pt.x, p) >= 0 || cmp(pt.y, p) >= 0) return false;
  const U256 x = to_mont(pt.x, kP256Field);
  const U256 y = to_mont(pt.y, kP256Field);
  // y^2 == x^3 - 3x + b
  const U256 rhs = fadd(fsub(fmul(fmul(x, x), x), ftriple(x)), curve_b());
  return fmul(y, y) == rhs;
}

AffinePoint ec_add(const AffinePoint& a, const AffinePoint& b) {
  return to_affine(point_add(from_affine(a), from_affine(b)));
}

AffinePoint ec_scalar_mult(const U256& k, const AffinePoint& point) {
  return to_affine(scalar_mult(k, from_affine(point)));
}

AffinePoint ec_scalar_base_mult(const U256& k) {
  const BaseTable& table = base_table();
  ProjectivePoint acc = identity();
  for (int i = 0; i < kWindows; ++i)
    acc = point_add(acc, lookup(table.windows[i], nibble(k, i)));
  return to_affine(acc);
}

Bytes encode_point(const AffinePoint& pt) {
  if (pt.infinity) throw std::invalid_argument("encode_point: cannot encode infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const Bytes x = pt.x.to_bytes();
  const Bytes y = pt.y.to_bytes();
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<AffinePoint> decode_point(BytesView bytes) {
  if (bytes.size() != 65 || bytes[0] != 0x04) return std::nullopt;
  AffinePoint pt;
  pt.x = U256::from_bytes(bytes.subspan(1, 32));
  pt.y = U256::from_bytes(bytes.subspan(33, 32));
  if (!on_curve(pt)) return std::nullopt;
  return pt;
}

}  // namespace guardnn::crypto
