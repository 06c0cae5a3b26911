// BigNum arithmetic: unit vectors plus randomized algebraic identities
// (the property sweep cross-checks DivMod/Mul/Add against 64-bit arithmetic
// and against each other on large operands).
#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/bignum.h"

namespace secureblox::crypto {
namespace {

BigNum FromHexOrDie(const std::string& h) { return BigNum::FromHex(h).value(); }

TEST(BigNumTest, ZeroBasics) {
  BigNum z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_EQ(BigNum::Cmp(z, BigNum::FromU64(0)), 0);
}

TEST(BigNumTest, FromU64RoundTrip) {
  for (uint64_t v : std::initializer_list<uint64_t>{
           0, 1, 0xFFFFFFFF, 0x100000000ULL, 0xDEADBEEFCAFEBABEULL,
           UINT64_MAX}) {
    EXPECT_EQ(BigNum::FromU64(v).ToU64(), v);
  }
}

TEST(BigNumTest, HexRoundTrip) {
  std::string hex = "1f2e3d4c5b6a79880102030405060708090a0b0c0d0e0f10";
  EXPECT_EQ(FromHexOrDie(hex).ToHex(), hex);
}

TEST(BigNumTest, BytesRoundTripWithPadding) {
  BigNum n = BigNum::FromU64(0x0102);
  Bytes fixed = n.ToBytes(8);
  EXPECT_EQ(ToHex(fixed), "0000000000000102");
  EXPECT_EQ(BigNum::FromBytes(fixed), n);
}

TEST(BigNumTest, BitLength) {
  EXPECT_EQ(BigNum::FromU64(1).BitLength(), 1u);
  EXPECT_EQ(BigNum::FromU64(255).BitLength(), 8u);
  EXPECT_EQ(BigNum::FromU64(256).BitLength(), 9u);
  EXPECT_EQ(BigNum::FromU64(1).ShiftLeft(100).BitLength(), 101u);
}

TEST(BigNumTest, AddSubSmall) {
  BigNum a = BigNum::FromU64(1000);
  BigNum b = BigNum::FromU64(1);
  EXPECT_EQ(BigNum::Add(a, b).ToU64(), 1001u);
  EXPECT_EQ(BigNum::Sub(a, b).ToU64(), 999u);
}

TEST(BigNumTest, AddCarriesAcrossLimbs) {
  BigNum a = BigNum::FromU64(0xFFFFFFFFFFFFFFFFULL);
  BigNum one = BigNum::FromU64(1);
  BigNum sum = BigNum::Add(a, one);
  EXPECT_EQ(sum.ToHex(), "10000000000000000");
  EXPECT_EQ(BigNum::Sub(sum, one), a);
}

TEST(BigNumTest, MulKnown) {
  // 0xFFFFFFFF * 0xFFFFFFFF = 0xFFFFFFFE00000001
  BigNum a = BigNum::FromU64(0xFFFFFFFF);
  EXPECT_EQ(BigNum::Mul(a, a).ToHex(), "fffffffe00000001");
  EXPECT_TRUE(BigNum::Mul(a, BigNum()).IsZero());
}

TEST(BigNumTest, ShiftInverse) {
  BigNum a = FromHexOrDie("123456789abcdef0123456789abcdef");
  for (size_t s : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(a.ShiftLeft(s).ShiftRight(s), a) << "shift=" << s;
  }
}

TEST(BigNumTest, DivModSmall) {
  BigNum q, r;
  BigNum::DivMod(BigNum::FromU64(100), BigNum::FromU64(7), &q, &r);
  EXPECT_EQ(q.ToU64(), 14u);
  EXPECT_EQ(r.ToU64(), 2u);
}

TEST(BigNumTest, DivModDividendSmallerThanDivisor) {
  BigNum q, r;
  BigNum::DivMod(BigNum::FromU64(3), BigNum::FromU64(7), &q, &r);
  EXPECT_TRUE(q.IsZero());
  EXPECT_EQ(r.ToU64(), 3u);
}

TEST(BigNumTest, DivModExact) {
  BigNum a = FromHexOrDie("10000000000000000000000000");
  BigNum b = FromHexOrDie("1000000000000");
  BigNum q, r;
  BigNum::DivMod(a, b, &q, &r);
  EXPECT_TRUE(r.IsZero());
  EXPECT_EQ(BigNum::Mul(q, b), a);
}

TEST(BigNumTest, DivModRandomIdentity64) {
  // a = q*b + r with 0 <= r < b, cross-checked against uint64 arithmetic.
  Xoshiro256 rng(42);
  for (int i = 0; i < 500; ++i) {
    uint64_t a = rng.Next();
    uint64_t b = rng.Next() % 100000 + 1;
    BigNum q, r;
    BigNum::DivMod(BigNum::FromU64(a), BigNum::FromU64(b), &q, &r);
    EXPECT_EQ(q.ToU64(), a / b);
    EXPECT_EQ(r.ToU64(), a % b);
  }
}

TEST(BigNumTest, DivModRandomIdentityLarge) {
  Xoshiro256 rng(43);
  auto rand_bits = [&](size_t bits) {
    return BigNum::RandomBits(bits,
                              [&] { return static_cast<uint32_t>(rng.Next()); });
  };
  for (int i = 0; i < 50; ++i) {
    BigNum a = rand_bits(512 + i);
    BigNum b = rand_bits(128 + (i % 200));
    BigNum q, r;
    BigNum::DivMod(a, b, &q, &r);
    EXPECT_LT(BigNum::Cmp(r, b), 0);
    EXPECT_EQ(BigNum::Add(BigNum::Mul(q, b), r), a) << "iter " << i;
  }
}

TEST(BigNumTest, KnuthDAddBackCase) {
  // Crafted to exercise the rare "add back" correction in Algorithm D:
  // divisor with high limb 0x80000000 and dividend just below a multiple.
  BigNum b = FromHexOrDie("8000000000000000000000000001");
  BigNum q_expect = FromHexOrDie("fffffffffffffffffffffffffffe");
  BigNum a = BigNum::Add(BigNum::Mul(q_expect, b), FromHexOrDie("7"));
  BigNum q, r;
  BigNum::DivMod(a, b, &q, &r);
  EXPECT_EQ(q, q_expect);
  EXPECT_EQ(r, FromHexOrDie("7"));
}

TEST(BigNumTest, ModU32MatchesDivMod) {
  Xoshiro256 rng(44);
  for (int i = 0; i < 100; ++i) {
    BigNum a = BigNum::RandomBits(
        200, [&] { return static_cast<uint32_t>(rng.Next()); });
    uint32_t m = static_cast<uint32_t>(rng.Next() | 1);
    EXPECT_EQ(BigNum::ModU32(a, m),
              BigNum::Mod(a, BigNum::FromU64(m)).ToU64());
  }
}

TEST(BigNumTest, ModExpSmallKnown) {
  // 5^117 mod 19 = 1 (5 has order dividing 9; 5^9 = 1 mod 19 -> 117 = 9*13)
  EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(5), BigNum::FromU64(117),
                           BigNum::FromU64(19))
                .ToU64(),
            1u);
  // 2^10 mod 1000 = 24
  EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(2), BigNum::FromU64(10),
                           BigNum::FromU64(1000))
                .ToU64(),
            24u);
}

TEST(BigNumTest, ModExpFermat) {
  // a^(p-1) mod p == 1 for prime p and a not divisible by p.
  uint64_t p = 1000000007ULL;
  for (uint64_t a : {2ULL, 3ULL, 999999999ULL}) {
    EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(a), BigNum::FromU64(p - 1),
                             BigNum::FromU64(p))
                  .ToU64(),
              1u);
  }
}

TEST(BigNumTest, ModExpMatchesNaive) {
  Xoshiro256 rng(45);
  for (int i = 0; i < 50; ++i) {
    uint64_t base = rng.Next() % 1000 + 2;
    uint64_t exp = rng.Next() % 30;
    uint64_t mod = rng.Next() % 100000 + 2;
    uint64_t expect = 1;
    for (uint64_t j = 0; j < exp; ++j) expect = (expect * base) % mod;
    EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(base), BigNum::FromU64(exp),
                             BigNum::FromU64(mod))
                  .ToU64(),
              expect);
  }
}

TEST(BigNumTest, MontgomeryMatchesDivisionModExp) {
  // ModExp dispatches to Montgomery for odd moduli; verify it
  // against the identity a^(e1+e2) = a^e1 * a^e2 and against known values
  // computed via the division fallback (even modulus forces the fallback).
  Xoshiro256 rng(51);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  for (int iter = 0; iter < 10; ++iter) {
    BigNum m = BigNum::RandomBits(160, word);
    if (!m.IsOdd()) m = BigNum::Add(m, BigNum::FromU64(1));
    BigNum a = BigNum::Mod(BigNum::RandomBits(150, word), m);
    BigNum e1 = BigNum::RandomBits(40, word);
    BigNum e2 = BigNum::RandomBits(40, word);
    BigNum lhs = BigNum::ModExp(a, BigNum::Add(e1, e2), m);
    BigNum rhs = BigNum::Mod(
        BigNum::Mul(BigNum::ModExp(a, e1, m), BigNum::ModExp(a, e2, m)), m);
    EXPECT_EQ(lhs, rhs) << "iter " << iter;
  }
}

TEST(BigNumTest, MontgomeryEdgeValues) {
  Xoshiro256 rng(52);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  BigNum m = BigNum::GeneratePrime(96, word);
  // base 0, 1, m-1; exponent 0, 1.
  EXPECT_TRUE(BigNum::ModExp(BigNum(), BigNum::FromU64(5), m).IsZero());
  EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(1), BigNum::FromU64(99), m),
            BigNum::FromU64(1));
  EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(7), BigNum(), m),
            BigNum::FromU64(1));
  EXPECT_EQ(BigNum::ModExp(BigNum::FromU64(7), BigNum::FromU64(1), m),
            BigNum::FromU64(7));
  BigNum m1 = BigNum::Sub(m, BigNum::FromU64(1));
  // (m-1)^2 = 1 mod m.
  EXPECT_EQ(BigNum::ModExp(m1, BigNum::FromU64(2), m), BigNum::FromU64(1));
}

// Division-based square-and-multiply: the reference MontContext must match.
BigNum SlowModExp(const BigNum& base, const BigNum& exp, const BigNum& m) {
  BigNum result = BigNum::Mod(BigNum::FromU64(1), m);
  BigNum b = BigNum::Mod(base, m);
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = BigNum::Mod(BigNum::Mul(result, result), m);
    if (exp.Bit(i)) result = BigNum::Mod(BigNum::Mul(result, b), m);
  }
  return result;
}

TEST(BigNumTest, MontContextExpMatchesDivisionReference) {
  Xoshiro256 rng(53);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  BigNum one = BigNum::FromU64(1);
  for (size_t limbs = 2; limbs <= 40; ++limbs) {
    // Odd and even 32-bit limb counts pack into ceil(limbs / 2) 64-bit
    // limbs, the odd ones with a zero top half.
    BigNum random_m = BigNum::RandomBits(32 * limbs, word);
    if (!random_m.IsOdd()) random_m = BigNum::Add(random_m, one);
    BigNum full_ones = BigNum::Sub(one.ShiftLeft(32 * limbs), one);
    BigNum short_ones = BigNum::Sub(one.ShiftLeft(32 * limbs - 31), one);
    for (const BigNum& m : {random_m, full_ones, short_ones}) {
      ASSERT_EQ(m.limbs().size(), limbs);
      MontContext ctx(m);
      std::vector<BigNum> bases = {
          BigNum(),                                           // zero
          one,
          BigNum::Sub(m, one),                                // m - 1
          m,                                                  // = 0 mod m
          BigNum::Add(m, BigNum::FromU64(5)),                 // >= m
          BigNum::RandomBits(64 * limbs + 7, word),           // >> m
          BigNum::Mod(BigNum::RandomBits(32 * limbs, word), m)};
      std::vector<BigNum> exps = {
          one,
          BigNum::FromU64(2),
          BigNum::FromU64(65537),
          // Bit lengths 33 and 64 + 1: the top limb's high nibbles are
          // zero and only its lowest window holds a set bit.
          one.ShiftLeft(32),
          BigNum::Add(one.ShiftLeft(64), one),
          // Runs of zero windows between set bits.
          BigNum::Add(one.ShiftLeft(4 * limbs + 8), BigNum::FromU64(3)),
          BigNum::RandomBits(std::min<size_t>(32 * limbs - 3, 253), word),
          BigNum::RandomBits(17 + limbs, word)};
      for (size_t bi = 0; bi < bases.size(); ++bi) {
        for (size_t ei = 0; ei < exps.size(); ++ei) {
          BigNum want = SlowModExp(bases[bi], exps[ei], m);
          EXPECT_EQ(ctx.Exp(bases[bi], exps[ei]), want)
              << "limbs=" << limbs << " m=" << m.ToHex() << " base#" << bi
              << " exp#" << ei;
          EXPECT_EQ(BigNum::ModExp(bases[bi], exps[ei], m), want);
        }
      }
      EXPECT_EQ(ctx.Exp(bases.back(), BigNum()), one);
    }
  }
}

TEST(BigNumTest, MontContextSingleLimbModuli) {
  // Moduli below 2^32 pack into one 64-bit limb.
  for (uint64_t m : {3ULL, 19ULL, 65537ULL, 1000000007ULL, 4294967291ULL}) {
    MontContext ctx(BigNum::FromU64(m));
    for (uint64_t base : std::initializer_list<uint64_t>{0, 2, m - 1, m + 3}) {
      for (uint64_t exp : {0, 1, 15, 16, 12345}) {
        BigNum want = SlowModExp(BigNum::FromU64(base), BigNum::FromU64(exp),
                                 BigNum::FromU64(m));
        EXPECT_EQ(ctx.Exp(BigNum::FromU64(base), BigNum::FromU64(exp)), want)
            << base << "^" << exp << " mod " << m;
      }
    }
  }
}

TEST(BigNumTest, MillerRabinMultiLimb) {
  Xoshiro256 rng(54);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  // 2^64 - 2^32 + 1 (n - 1 = 2^32 * odd: a long squaring chain) and
  // 2^255 - 19 are prime.
  BigNum goldilocks = FromHexOrDie("ffffffff00000001");
  BigNum p25519 = FromHexOrDie(
      "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed");
  EXPECT_TRUE(BigNum::IsProbablePrime(goldilocks, 20, word));
  EXPECT_TRUE(BigNum::IsProbablePrime(p25519, 20, word));
  // Products of primes above the trial-division table reach Miller-Rabin.
  EXPECT_FALSE(BigNum::IsProbablePrime(BigNum::Mul(goldilocks, p25519), 20,
                                       word));
  BigNum p = BigNum::GeneratePrime(96, word);
  BigNum q = BigNum::GeneratePrime(96, word);
  EXPECT_FALSE(BigNum::IsProbablePrime(BigNum::Mul(p, q), 20, word));
}

TEST(BigNumTest, GcdKnown) {
  EXPECT_EQ(BigNum::Gcd(BigNum::FromU64(48), BigNum::FromU64(18)).ToU64(), 6u);
  EXPECT_EQ(BigNum::Gcd(BigNum::FromU64(17), BigNum::FromU64(13)).ToU64(), 1u);
  EXPECT_EQ(BigNum::Gcd(BigNum::FromU64(0), BigNum::FromU64(5)).ToU64(), 5u);
}

TEST(BigNumTest, ModInverseKnown) {
  // 3 * 7 = 21 = 1 mod 10
  EXPECT_EQ(BigNum::ModInverse(BigNum::FromU64(3), BigNum::FromU64(10))
                .value()
                .ToU64(),
            7u);
  EXPECT_FALSE(BigNum::ModInverse(BigNum::FromU64(4), BigNum::FromU64(10)).ok());
}

TEST(BigNumTest, ModInverseRandom) {
  Xoshiro256 rng(46);
  BigNum m = BigNum::FromU64(1000000007ULL);  // prime modulus
  for (int i = 0; i < 50; ++i) {
    BigNum a = BigNum::FromU64(rng.Next() % 1000000006ULL + 1);
    BigNum inv = BigNum::ModInverse(a, m).value();
    EXPECT_EQ(BigNum::Mod(BigNum::Mul(a, inv), m).ToU64(), 1u);
  }
}

TEST(BigNumTest, ModInverseLarge) {
  Xoshiro256 rng(47);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  BigNum p = BigNum::GeneratePrime(128, word);
  for (int i = 0; i < 10; ++i) {
    BigNum a = BigNum::Mod(BigNum::RandomBits(120, word), p);
    if (a.IsZero()) continue;
    BigNum inv = BigNum::ModInverse(a, p).value();
    EXPECT_EQ(BigNum::Mod(BigNum::Mul(a, inv), p), BigNum::FromU64(1));
  }
}

TEST(BigNumTest, PrimalitySmallKnown) {
  Xoshiro256 rng(48);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 97ULL, 65537ULL, 1000000007ULL}) {
    EXPECT_TRUE(BigNum::IsProbablePrime(BigNum::FromU64(p), 20, word))
        << p;
  }
  for (uint64_t c : {1ULL, 4ULL, 100ULL, 65536ULL, 1000000008ULL,
                     561ULL /* Carmichael */, 341ULL /* 2-pseudoprime */}) {
    EXPECT_FALSE(BigNum::IsProbablePrime(BigNum::FromU64(c), 20, word))
        << c;
  }
}

TEST(BigNumTest, GeneratePrimeHasRequestedSize) {
  Xoshiro256 rng(49);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  BigNum p = BigNum::GeneratePrime(96, word);
  EXPECT_EQ(p.BitLength(), 96u);
  EXPECT_TRUE(p.IsOdd());
  EXPECT_TRUE(BigNum::IsProbablePrime(p, 20, word));
}

TEST(BigNumTest, RandomBitsExactLength) {
  Xoshiro256 rng(50);
  auto word = [&] { return static_cast<uint32_t>(rng.Next()); };
  for (size_t bits : {1u, 31u, 32u, 33u, 100u, 512u}) {
    EXPECT_EQ(BigNum::RandomBits(bits, word).BitLength(), bits);
  }
}

TEST(BigNumTest, CmpOrdering) {
  BigNum a = FromHexOrDie("ffffffffffffffff");
  BigNum b = FromHexOrDie("10000000000000000");
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_GE(b, b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace secureblox::crypto
