#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "crypto/bigint.h"
#include "crypto/p256.h"
#include "p256_oracle.h"

namespace guardnn::crypto {
namespace {

U256 random_u256(guardnn::Xoshiro256& rng) {
  U256 v;
  for (auto& limb : v.limb) limb = rng.next();
  return v;
}

U256 random_below(guardnn::Xoshiro256& rng, const U256& m) {
  return oracle::mod_reduce(oracle::widen(random_u256(rng)), m);
}

// 0, 1, m-2 and m-1: the operands where carries and the final conditional
// subtraction are most likely to go wrong.
std::vector<U256> edge_values(const U256& m) {
  U256 m1, m2;
  sub(m1, m, U256::one());
  sub(m2, m, U256::from_u64(2));
  return {U256::zero(), U256::one(), m2, m1};
}

TEST(U256, HexRoundTrip) {
  const U256 v = U256::from_hex("deadbeef00000000000000000000000000000000000000000000000012345678");
  EXPECT_EQ(v.to_hex(),
            "deadbeef00000000000000000000000000000000000000000000000012345678");
  EXPECT_EQ(v.limb[0], 0x12345678u);
  EXPECT_EQ(v.limb[3], 0xdeadbeef00000000ULL);
}

TEST(U256, BytesRoundTrip) {
  guardnn::Xoshiro256 rng(1);
  for (int i = 0; i < 20; ++i) {
    const U256 v = random_u256(rng);
    EXPECT_EQ(U256::from_bytes(v.to_bytes()), v);
  }
}

TEST(U256, CmpOrdering) {
  const U256 a = U256::from_u64(5);
  const U256 b = U256::from_u64(9);
  U256 big;
  big.limb[3] = 1;
  EXPECT_EQ(cmp(a, b), -1);
  EXPECT_EQ(cmp(b, a), 1);
  EXPECT_EQ(cmp(a, a), 0);
  EXPECT_EQ(cmp(big, b), 1);
}

TEST(U256, AddSubInverse) {
  guardnn::Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    const U256 a = random_u256(rng);
    const U256 b = random_u256(rng);
    U256 s, d;
    const u64 carry = add(s, a, b);
    const u64 borrow = sub(d, s, b);
    // (a + b) - b == a, modulo 2^256 carry behaviour.
    EXPECT_EQ(d, a);
    EXPECT_EQ(borrow, carry);
  }
}

TEST(U256, AddCarryOut) {
  U256 max;
  max.limb.fill(~0ULL);
  U256 s;
  EXPECT_EQ(add(s, max, U256::one()), 1u);
  EXPECT_TRUE(s.is_zero());
}

TEST(U256, SubBorrowOut) {
  U256 d;
  EXPECT_EQ(sub(d, U256::zero(), U256::one()), 1u);
  U256 max;
  max.limb.fill(~0ULL);
  EXPECT_EQ(d, max);
}

TEST(U256, Shr1) {
  const U256 v = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001");
  const U256 half = shr1(v);
  EXPECT_EQ(half.to_hex(),
            "4000000000000000000000000000000000000000000000000000000000000000");
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256::zero().bit_length(), 0);
  EXPECT_EQ(U256::one().bit_length(), 1);
  EXPECT_EQ(U256::from_u64(0xff).bit_length(), 8);
  U256 top;
  top.limb[3] = 1ULL << 63;
  EXPECT_EQ(top.bit_length(), 256);
}

// The bit-serial reducer, generic exponentiation and Fermat inversion now
// live in the test oracle (p256_oracle.h); these cases pin the oracle itself
// before it is trusted as a reference.
TEST(MulWide, SmallKnownProduct) {
  const oracle::U512 p = oracle::mul_wide(U256::from_u64(0xffffffffffffffffULL),
                                          U256::from_u64(0xffffffffffffffffULL));
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(p.limb[0], 1u);
  EXPECT_EQ(p.limb[1], 0xfffffffffffffffeULL);
  EXPECT_EQ(p.limb[2], 0u);
}

TEST(MulWide, Commutative) {
  guardnn::Xoshiro256 rng(3);
  for (int i = 0; i < 50; ++i) {
    const U256 a = random_u256(rng);
    const U256 b = random_u256(rng);
    EXPECT_EQ(oracle::mul_wide(a, b).limb, oracle::mul_wide(b, a).limb);
  }
}

TEST(ModReduce, ResultBelowModulus) {
  guardnn::Xoshiro256 rng(4);
  const U256& m = kP256Field.m;
  for (int i = 0; i < 50; ++i) {
    const oracle::U512 x = oracle::mul_wide(random_u256(rng), random_u256(rng));
    const U256 r = oracle::mod_reduce(x, m);
    EXPECT_LT(cmp(r, m), 0);
  }
}

TEST(ModReduce, SmallExamples) {
  oracle::U512 x;
  x.limb[0] = 17;
  EXPECT_EQ(oracle::mod_reduce(x, U256::from_u64(5)), U256::from_u64(2));
  x.limb[0] = 4;
  EXPECT_EQ(oracle::mod_reduce(x, U256::from_u64(5)), U256::from_u64(4));
}

TEST(ModReduce, RejectsZeroModulus) {
  oracle::U512 x;
  EXPECT_THROW(oracle::mod_reduce(x, U256::zero()), std::invalid_argument);
}

TEST(PowMod, SmallCases) {
  const U256 m = U256::from_u64(1000000007ULL);
  EXPECT_EQ(oracle::mod_pow(U256::from_u64(2), U256::from_u64(10), m), U256::from_u64(1024));
  EXPECT_EQ(oracle::mod_pow(U256::from_u64(3), U256::zero(), m), U256::one());
}

TEST(PowMod, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and gcd(a,p)=1.
  const U256& p = kP256Field.m;
  U256 e;
  sub(e, p, U256::one());
  guardnn::Xoshiro256 rng(6);
  for (int i = 0; i < 5; ++i) {
    U256 a = random_below(rng, p);
    if (a.is_zero()) a = U256::one();
    EXPECT_EQ(oracle::mod_pow(a, e, p), U256::one());
  }
}

TEST(InvMod, InverseTimesSelfIsOne) {
  for (const MontModulus* mod : {&kP256Field, &kP256Order}) {
    guardnn::Xoshiro256 rng(7);
    for (int i = 0; i < 5; ++i) {
      U256 a = random_below(rng, mod->m);
      if (a.is_zero()) a = U256::from_u64(2);
      const U256 inv = inv_mod(a, *mod);
      EXPECT_EQ(mul_mod(a, inv, *mod), U256::one());
    }
  }
}

TEST(InvMod, RejectsZero) {
  // The oracle refuses; the constant-time inverse maps 0 to 0 without a branch.
  EXPECT_THROW(oracle::mod_inv(U256::zero(), U256::from_u64(7)), std::invalid_argument);
  EXPECT_TRUE(inv_mod(U256::zero(), kP256Field).is_zero());
  EXPECT_TRUE(inv_mod(U256::zero(), kP256Order).is_zero());
}

class ModArithTest : public ::testing::TestWithParam<u64> {};

TEST_P(ModArithTest, FieldAxiomsSampled) {
  guardnn::Xoshiro256 rng(GetParam());
  const MontModulus& mod = kP256Order;
  const U256& m = mod.m;
  const U256 a = reduce_once(random_u256(rng), mod);
  const U256 b = reduce_once(random_u256(rng), mod);
  const U256 c = reduce_once(random_u256(rng), mod);

  // Commutativity and associativity.
  EXPECT_EQ(add_mod(a, b, m), add_mod(b, a, m));
  EXPECT_EQ(mul_mod(a, b, mod), mul_mod(b, a, mod));
  EXPECT_EQ(add_mod(add_mod(a, b, m), c, m), add_mod(a, add_mod(b, c, m), m));
  EXPECT_EQ(mul_mod(mul_mod(a, b, mod), c, mod), mul_mod(a, mul_mod(b, c, mod), mod));
  // Distributivity.
  EXPECT_EQ(mul_mod(a, add_mod(b, c, m), mod),
            add_mod(mul_mod(a, b, mod), mul_mod(a, c, mod), m));
  // Additive inverse.
  EXPECT_TRUE(sub_mod(a, a, m).is_zero());
  EXPECT_EQ(add_mod(sub_mod(a, b, m), b, m), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModArithTest,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

// Differential tests: the Montgomery arithmetic against the bit-serial
// oracle, modulo both P-256 moduli, on random operands and on the edges.
class MontgomeryOracleTest : public ::testing::TestWithParam<const MontModulus*> {};

TEST_P(MontgomeryOracleTest, ConstantsMatchOracle) {
  const MontModulus& mod = *GetParam();
  EXPECT_EQ(mod.m_inv * mod.m.limb[0], ~u64{0});  // m * (-m^-1) == -1 mod 2^64
  oracle::U512 r;
  r.limb[4] = 1;
  EXPECT_EQ(mod.one, oracle::mod_reduce(r, mod.m));
  const U256 r_mod = oracle::mod_reduce(r, mod.m);
  EXPECT_EQ(mod.r2, oracle::mod_mul(r_mod, r_mod, mod.m));
}

TEST_P(MontgomeryOracleTest, MulSqrAddSubMatchOracle) {
  const MontModulus& mod = *GetParam();
  const U256& m = mod.m;
  guardnn::Xoshiro256 rng(21);
  std::vector<U256> values = edge_values(m);
  for (int i = 0; i < 60; ++i) values.push_back(random_below(rng, m));
  for (const U256& a : values) {
    EXPECT_EQ(from_mont(to_mont(a, mod), mod), a);
    EXPECT_EQ(mul_mod(a, a, mod), oracle::mod_mul(a, a, m)) << a.to_hex();
    for (std::size_t j = 0; j < values.size(); j += 7) {
      const U256& b = values[j];
      EXPECT_EQ(mul_mod(a, b, mod), oracle::mod_mul(a, b, m)) << a.to_hex() << " " << b.to_hex();
      EXPECT_EQ(add_mod(a, b, m), oracle::mod_add(a, b, m));
      EXPECT_EQ(sub_mod(a, b, m), oracle::mod_sub(a, b, m));
    }
  }
  // Montgomery-domain product: to_mont(a) * to_mont(b) / R == to_mont(a b).
  const U256 a = random_below(rng, m);
  const U256 b = random_below(rng, m);
  EXPECT_EQ(mont_mul(to_mont(a, mod), to_mont(b, mod), mod),
            to_mont(oracle::mod_mul(a, b, m), mod));
}

TEST_P(MontgomeryOracleTest, InverseMatchesOracle) {
  const MontModulus& mod = *GetParam();
  const U256& m = mod.m;
  guardnn::Xoshiro256 rng(22);
  std::vector<U256> values = edge_values(m);
  values.erase(values.begin());  // zero has no inverse
  for (int i = 0; i < 8; ++i) values.push_back(random_below(rng, m));
  for (const U256& a : values) {
    EXPECT_EQ(inv_mod(a, mod), oracle::mod_inv(a, m)) << a.to_hex();
    EXPECT_EQ(mont_inv(to_mont(a, mod), mod), to_mont(oracle::mod_inv(a, m), mod));
  }
}

TEST_P(MontgomeryOracleTest, ReduceOnceMatchesOracle) {
  const MontModulus& mod = *GetParam();
  guardnn::Xoshiro256 rng(23);
  std::vector<U256> values = edge_values(mod.m);
  values.push_back(mod.m);
  U256 all_ones;
  all_ones.limb.fill(~u64{0});
  values.push_back(all_ones);
  for (int i = 0; i < 50; ++i) values.push_back(random_u256(rng));
  for (const U256& a : values)
    EXPECT_EQ(reduce_once(a, mod), oracle::mod_reduce(oracle::widen(a), mod.m));
}

INSTANTIATE_TEST_SUITE_P(P256, MontgomeryOracleTest,
                         ::testing::Values(&kP256Field, &kP256Order),
                         [](const auto& info) {
                           return info.param == &kP256Field ? std::string("FieldP")
                                                            : std::string("OrderN");
                         });

}  // namespace
}  // namespace guardnn::crypto
