// Arbitrary-precision unsigned integers for RSA.
//
// BigNum stores little-endian 32-bit limbs with 64-bit intermediates;
// division is Knuth TAOCP vol. 2 Algorithm D. Modular exponentiation runs
// in a MontContext: one precomputed Montgomery context per odd modulus
// (64-bit limbs, 128-bit products, R^2 mod n computed once), kept with the
// RSA key that owns the modulus and reused by every sign and verify.
#ifndef SECUREBLOX_CRYPTO_BIGNUM_H_
#define SECUREBLOX_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace secureblox::crypto {

/// Unsigned big integer. Value semantics; zero is the empty limb vector.
class BigNum {
 public:
  BigNum() = default;

  static BigNum FromU64(uint64_t v);
  /// Big-endian byte interpretation.
  static BigNum FromBytes(const Bytes& bytes);
  static Result<BigNum> FromHex(const std::string& hex);

  /// Big-endian bytes, minimal length (empty for zero) or padded/truncated
  /// to `fixed_len` when >= 0.
  Bytes ToBytes(int fixed_len = -1) const;
  std::string ToHex() const;
  /// Value as uint64_t; asserts that it fits.
  uint64_t ToU64() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  size_t BitLength() const;
  bool Bit(size_t i) const;

  /// Three-way comparison: -1, 0, +1.
  static int Cmp(const BigNum& a, const BigNum& b);
  bool operator==(const BigNum& o) const { return Cmp(*this, o) == 0; }
  bool operator!=(const BigNum& o) const { return Cmp(*this, o) != 0; }
  bool operator<(const BigNum& o) const { return Cmp(*this, o) < 0; }
  bool operator<=(const BigNum& o) const { return Cmp(*this, o) <= 0; }
  bool operator>(const BigNum& o) const { return Cmp(*this, o) > 0; }
  bool operator>=(const BigNum& o) const { return Cmp(*this, o) >= 0; }

  static BigNum Add(const BigNum& a, const BigNum& b);
  /// Requires a >= b.
  static BigNum Sub(const BigNum& a, const BigNum& b);
  static BigNum Mul(const BigNum& a, const BigNum& b);
  /// Knuth Algorithm D. Requires !b.IsZero().
  static void DivMod(const BigNum& a, const BigNum& b, BigNum* quotient,
                     BigNum* remainder);
  static BigNum Mod(const BigNum& a, const BigNum& m);
  /// Remainder of division by a single 32-bit limb (m != 0).
  static uint32_t ModU32(const BigNum& a, uint32_t m);

  BigNum ShiftLeft(size_t bits) const;
  BigNum ShiftRight(size_t bits) const;

  /// (base ^ exp) mod m for callers without a cached context: odd moduli
  /// build a temporary MontContext, even ones use division-based
  /// square-and-multiply. Requires !m.IsZero().
  static BigNum ModExp(const BigNum& base, const BigNum& exp, const BigNum& m);

  static BigNum Gcd(BigNum a, BigNum b);
  /// Modular inverse of a mod m; error when gcd(a, m) != 1.
  static Result<BigNum> ModInverse(const BigNum& a, const BigNum& m);

  /// Uniform value with exactly `bits` significant bits drawn from `rng`
  /// (rng returns uniform uint32 words).
  static BigNum RandomBits(size_t bits, const std::function<uint32_t()>& rng);

  /// Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const BigNum& n, int rounds,
                              const std::function<uint32_t()>& rng);

  /// Random probable prime with exactly `bits` bits (top two bits set so
  /// products have full length).
  static BigNum GeneratePrime(size_t bits, const std::function<uint32_t()>& rng);

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  friend class MontContext;

  void Normalize();

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

/// Montgomery arithmetic modulo one odd modulus n > 1, precomputed once:
/// n as k fixed-width 64-bit limbs, n0inv = -n^-1 mod 2^64, R^2 mod n and
/// R mod n for R = 2^(64k). Immutable after construction, so one context
/// may be shared by copies of a key and by concurrent threads.
class MontContext {
 public:
  explicit MontContext(const BigNum& n);

  /// (base ^ exp) mod n; base may be >= n. Fixed 4-bit windows over a
  /// 16-entry table: the only data-dependent control flow is the window
  /// count (the exponent's bit length). Each table entry is picked by a
  /// masked scan of the whole table and each product's final subtraction
  /// is masked, so a private exponent's bits select no branch and no
  /// memory address.
  BigNum Exp(const BigNum& base, const BigNum& exp) const;

  /// One Miller-Rabin round for n, where n - 1 = d * 2^s with d odd: true
  /// when base `a` proves n composite. The squaring chain stays in
  /// Montgomery form.
  bool IsMillerRabinWitness(const BigNum& a, const BigNum& d, size_t s) const;

 private:
  /// Words of scratch PowMont needs: 16 table entries, a selected entry
  /// and the k + 1 words of Mul's accumulator.
  size_t ScratchWords() const { return 16 * k_ + k_ + k_ + 1; }
  /// v (< 2^(64k)) as k little-endian 64-bit limbs.
  void ToWords(const BigNum& v, uint64_t* out) const;
  std::vector<uint64_t> ToWords(const BigNum& v) const;
  BigNum FromWords(const uint64_t* w) const;
  /// r = a * b * R^-1 mod n (CIOS) for a, b < n. `t` is k + 1 words of
  /// scratch; r may alias a or b.
  void Mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
           uint64_t* t) const;
  /// acc = base^exp * R mod n (Montgomery form).
  void PowMont(const BigNum& base, const BigNum& exp, uint64_t* acc,
               uint64_t* scratch) const;

  BigNum n_;
  size_t k_;  // 64-bit limbs in n
  uint64_t n0inv_ = 0;
  // k words each.
  std::vector<uint64_t> n_words_;
  std::vector<uint64_t> r2_;         // R^2 mod n
  std::vector<uint64_t> one_;        // R mod n: 1 in Montgomery form
  std::vector<uint64_t> minus_one_;  // n - (R mod n): n - 1 likewise
};

}  // namespace secureblox::crypto

#endif  // SECUREBLOX_CRYPTO_BIGNUM_H_
