#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace secureblox::crypto {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269,
    271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353};
}  // namespace

void BigNum::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::FromU64(uint64_t v) {
  BigNum n;
  if (v != 0) {
    n.limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) n.limbs_.push_back(static_cast<uint32_t>(v >> 32));
  }
  return n;
}

BigNum BigNum::FromBytes(const Bytes& bytes) {
  BigNum n;
  n.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // bytes[i] is the most significant remaining byte.
    size_t bit_pos = (bytes.size() - 1 - i) * 8;
    n.limbs_[bit_pos / 32] |= static_cast<uint32_t>(bytes[i])
                              << (bit_pos % 32);
  }
  n.Normalize();
  return n;
}

Result<BigNum> BigNum::FromHex(const std::string& hex) {
  std::string padded = hex.size() % 2 ? "0" + hex : hex;
  SB_ASSIGN_OR_RETURN(Bytes b, secureblox::FromHex(padded));
  return FromBytes(b);
}

Bytes BigNum::ToBytes(int fixed_len) const {
  size_t min_len = (BitLength() + 7) / 8;
  size_t len = fixed_len >= 0 ? static_cast<size_t>(fixed_len) : min_len;
  Bytes out(len, 0);
  for (size_t i = 0; i < len; ++i) {
    size_t bit_pos = i * 8;  // i-th least significant byte
    size_t limb = bit_pos / 32;
    if (limb < limbs_.size()) {
      out[len - 1 - i] =
          static_cast<uint8_t>(limbs_[limb] >> (bit_pos % 32));
    }
  }
  return out;
}

std::string BigNum::ToHex() const {
  if (IsZero()) return "0";
  std::string s = secureblox::ToHex(ToBytes());
  size_t first = s.find_first_not_of('0');
  return s.substr(first == std::string::npos ? s.size() - 1 : first);
}

uint64_t BigNum::ToU64() const {
  assert(limbs_.size() <= 2);
  uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

size_t BigNum::BitLength() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 32 - std::countl_zero(limbs_.back());
}

bool BigNum::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::Cmp(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum BigNum::Add(const BigNum& a, const BigNum& b) {
  BigNum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigNum BigNum::Sub(const BigNum& a, const BigNum& b) {
  assert(Cmp(a, b) >= 0);
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::Mul(const BigNum& a, const BigNum& b) {
  if (a.IsZero() || b.IsZero()) return BigNum();
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigNum out = *this;
    return out;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

void BigNum::DivMod(const BigNum& a, const BigNum& b, BigNum* quotient,
                    BigNum* remainder) {
  assert(!b.IsZero() && "division by zero");
  if (Cmp(a, b) < 0) {
    if (quotient) *quotient = BigNum();
    if (remainder) *remainder = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    uint64_t divisor = b.limbs_[0];
    BigNum q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q.Normalize();
    if (quotient) *quotient = std::move(q);
    if (remainder) *remainder = FromU64(rem);
    return;
  }

  // Knuth TAOCP 4.3.1 Algorithm D.
  size_t shift = std::countl_zero(b.limbs_.back());
  BigNum u = a.ShiftLeft(shift);
  BigNum v = b.ShiftLeft(shift);
  size_t n = v.limbs_.size();
  // Ensure u has one extra limb for the algorithm's u[j+n] access.
  u.limbs_.resize(std::max(u.limbs_.size(), a.limbs_.size() + 1) + 1, 0);
  size_t m = u.limbs_.size() - n - 1;

  BigNum q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_hi = v.limbs_[n - 1];
  const uint64_t v_lo = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v_hi;
    uint64_t rhat = numerator % v_hi;
    while (qhat >= kBase ||
           qhat * v_lo > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_hi;
      if (rhat >= kBase) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v.limbs_[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u.limbs_[i + j]) -
                     static_cast<int64_t>(product & 0xFFFFFFFF) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t top = static_cast<int64_t>(u.limbs_[j + n]) -
                  static_cast<int64_t>(carry) - borrow;
    if (top < 0) {
      // Add back: qhat was one too large.
      top += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] +
                       add_carry;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        add_carry = sum >> 32;
      }
      top += static_cast<int64_t>(add_carry);
      top &= 0xFFFFFFFF;
    }
    u.limbs_[j + n] = static_cast<uint32_t>(top);
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Normalize();
  if (quotient) *quotient = std::move(q);
  if (remainder) {
    u.limbs_.resize(n);
    u.Normalize();
    *remainder = u.ShiftRight(shift);
  }
}

BigNum BigNum::Mod(const BigNum& a, const BigNum& m) {
  BigNum r;
  DivMod(a, m, nullptr, &r);
  return r;
}

uint32_t BigNum::ModU32(const BigNum& a, uint32_t m) {
  assert(m != 0);
  uint64_t rem = 0;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | a.limbs_[i]) % m;
  }
  return static_cast<uint32_t>(rem);
}

BigNum BigNum::ModExp(const BigNum& base, const BigNum& exp, const BigNum& m) {
  assert(!m.IsZero());
  if (m == FromU64(1)) return BigNum();
  if (m.IsOdd()) return MontContext(m).Exp(base, exp);

  // Even modulus: division-based square-and-multiply.
  BigNum result = FromU64(1);
  BigNum b = Mod(base, m);
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = Mod(Mul(result, result), m);
    if (exp.Bit(i)) result = Mod(Mul(result, b), m);
  }
  return result;
}

BigNum BigNum::Gcd(BigNum a, BigNum b) {
  while (!b.IsZero()) {
    BigNum r = Mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Result<BigNum> BigNum::ModInverse(const BigNum& a, const BigNum& m) {
  // Extended Euclid tracking coefficients in signed form:
  // maintain (r, sign, t) with t*a ≡ sign*r (mod m) style bookkeeping.
  // To stay in unsigned arithmetic we track t modulo m with explicit sign.
  BigNum r0 = m;
  BigNum r1 = Mod(a, m);
  BigNum t0;            // 0
  BigNum t1 = FromU64(1);
  bool t0_neg = false, t1_neg = false;

  while (!r1.IsZero()) {
    BigNum q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q*t1 with sign handling.
    BigNum qt1 = Mul(q, t1);
    BigNum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Cmp(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (r0 != FromU64(1)) {
    return Status::CryptoError("ModInverse: arguments not coprime");
  }
  BigNum inv = Mod(t0, m);
  if (t0_neg && !inv.IsZero()) inv = Sub(m, inv);
  return inv;
}

BigNum BigNum::RandomBits(size_t bits,
                          const std::function<uint32_t()>& rng) {
  if (bits == 0) return BigNum();
  BigNum n;
  n.limbs_.assign((bits + 31) / 32, 0);
  for (auto& limb : n.limbs_) limb = rng();
  // Mask to exactly `bits` and force the top bit.
  size_t top_bits = bits % 32;
  if (top_bits != 0) {
    n.limbs_.back() &= (1U << top_bits) - 1;
    n.limbs_.back() |= 1U << (top_bits - 1);
  } else {
    n.limbs_.back() |= 1U << 31;
  }
  n.Normalize();
  return n;
}

bool BigNum::IsProbablePrime(const BigNum& n, int rounds,
                             const std::function<uint32_t()>& rng) {
  if (n.BitLength() <= 6) {
    uint64_t v = n.ToU64();
    if (v < 2) return false;
    for (uint64_t d = 2; d * d <= v; ++d) {
      if (v % d == 0) return false;
    }
    return true;
  }
  if (!n.IsOdd()) return false;
  for (uint32_t p : kSmallPrimes) {
    if (ModU32(n, p) == 0) return n == FromU64(p);
  }

  // n - 1 = d * 2^s with d odd.
  BigNum d = Sub(n, FromU64(1));
  size_t s = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++s;
  }

  const MontContext mont(n);
  size_t bits = n.BitLength();
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    BigNum a;
    do {
      a = RandomBits(bits - 1, rng);
    } while (Cmp(a, FromU64(2)) < 0 || Cmp(a, Sub(n, FromU64(2))) > 0);
    if (mont.IsMillerRabinWitness(a, d, s)) return false;
  }
  return true;
}

BigNum BigNum::GeneratePrime(size_t bits,
                             const std::function<uint32_t()>& rng) {
  assert(bits >= 16);
  while (true) {
    BigNum candidate = RandomBits(bits, rng);
    // Force the two top bits (so p*q has full length) and oddness.
    BigNum top2 = FromU64(3).ShiftLeft(bits - 2);
    candidate = Add(Mod(candidate, top2), top2);
    if (!candidate.IsOdd()) candidate = Add(candidate, FromU64(1));
    // Incremental search from the candidate.
    for (int step = 0; step < 256; ++step) {
      if (candidate.BitLength() != bits) break;
      if (IsProbablePrime(candidate, 12, rng)) return candidate;
      candidate = Add(candidate, FromU64(2));
    }
  }
}

// -- MontContext -------------------------------------------------------------

namespace {
using u128 = unsigned __int128;
constexpr size_t kWindowBits = 4;
constexpr size_t kTableSize = size_t{1} << kWindowBits;

// Low word of a * b + c + *carry; the high word goes back into *carry.
// Spelled with 64-bit halves: GCC keeps these in registers where a chain
// of 128-bit additions spills.
inline uint64_t MulAdd(uint64_t a, uint64_t b, uint64_t c, uint64_t* carry) {
  u128 p = static_cast<u128>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p);
  uint64_t hi = static_cast<uint64_t>(p >> 64);
  lo += c;
  hi += lo < c;
  lo += *carry;
  hi += lo < *carry;
  *carry = hi;
  return lo;
}
}  // namespace

MontContext::MontContext(const BigNum& n)
    : n_(n), k_((n.limbs().size() + 1) / 2) {
  assert(n.IsOdd() && n != BigNum::FromU64(1));
  n_words_ = ToWords(n);
  // n0inv = -n^-1 mod 2^64 by Newton iteration: n*n = 1 mod 8 for odd n,
  // and each step doubles the correct low bits (3 -> 96).
  const uint64_t n0 = n_words_[0];
  uint64_t x = n0;
  for (int i = 0; i < 5; ++i) x *= 2 - n0 * x;
  n0inv_ = 0 - x;
  const BigNum one = BigNum::FromU64(1);
  r2_ = ToWords(BigNum::Mod(one.ShiftLeft(128 * k_), n));
  one_ = ToWords(BigNum::Mod(one.ShiftLeft(64 * k_), n));
  minus_one_ = ToWords(BigNum::Sub(n, FromWords(one_.data())));
}

void MontContext::ToWords(const BigNum& v, uint64_t* out) const {
  const std::vector<uint32_t>& l = v.limbs_;
  assert(l.size() <= 2 * k_);
  for (size_t i = 0; i < k_; ++i) {
    uint64_t lo = 2 * i < l.size() ? l[2 * i] : 0;
    uint64_t hi = 2 * i + 1 < l.size() ? l[2 * i + 1] : 0;
    out[i] = lo | hi << 32;
  }
}

std::vector<uint64_t> MontContext::ToWords(const BigNum& v) const {
  std::vector<uint64_t> out(k_);
  ToWords(v, out.data());
  return out;
}

BigNum MontContext::FromWords(const uint64_t* w) const {
  BigNum out;
  out.limbs_.resize(2 * k_);
  for (size_t i = 0; i < k_; ++i) {
    out.limbs_[2 * i] = static_cast<uint32_t>(w[i]);
    out.limbs_[2 * i + 1] = static_cast<uint32_t>(w[i] >> 32);
  }
  out.Normalize();
  return out;
}

void MontContext::Mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
                      uint64_t* __restrict t) const {
  const size_t k = k_;
  const uint64_t* n = n_words_.data();
  const uint64_t n0inv = n0inv_;
  std::fill(t, t + k + 1, 0);
  for (size_t i = 0; i < k; ++i) {
    // t = (t + a * b[i] + m * n) / 2^64, with m chosen so the low word
    // cancels. The product and reduction rows share one pass, each with
    // its own carry, so the two carry chains overlap.
    const uint64_t bi = b[i];
    uint64_t c1 = 0, c2 = 0;
    const uint64_t u = MulAdd(a[0], bi, t[0], &c1);
    const uint64_t m = u * n0inv;
    (void)MulAdd(m, n[0], u, &c2);
    for (size_t j = 1; j < k; ++j) {
      uint64_t v = MulAdd(a[j], bi, t[j], &c1);
      t[j - 1] = MulAdd(m, n[j], v, &c2);
    }
    uint64_t top = t[k] + c1;
    uint64_t hi = top < c1;
    top += c2;
    hi += top < c2;
    t[k - 1] = top;
    t[k] = hi;
  }
  // t < 2n: r = t - n unless that borrows out of t's top word, selected by
  // mask rather than by branch.
  uint64_t borrow = 0;
  for (size_t j = 0; j < k; ++j) {
    u128 d = static_cast<u128>(t[j]) - n[j] - borrow;
    r[j] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  uint64_t keep_t =
      static_cast<uint64_t>((static_cast<u128>(t[k]) - borrow) >> 64);
  for (size_t j = 0; j < k; ++j) r[j] = (t[j] & keep_t) | (r[j] & ~keep_t);
}

void MontContext::PowMont(const BigNum& base, const BigNum& exp, uint64_t* acc,
                          uint64_t* scratch) const {
  const size_t k = k_;
  uint64_t* table = scratch;  // kTableSize entries: base^i in Montgomery form
  uint64_t* sel = table + kTableSize * k;
  uint64_t* t = sel + k;

  ToWords(BigNum::Mod(base, n_), sel);
  std::copy(one_.begin(), one_.end(), table);
  Mul(table + k, sel, r2_.data(), t);
  for (size_t i = 2; i < kTableSize; ++i) {
    Mul(table + i * k, table + (i - 1) * k, table + k, t);
  }

  // Scan every entry and keep the one at `index` by mask, so the memory
  // touched does not depend on the exponent's bits.
  auto select = [&](uint64_t index) {
    std::fill(sel, sel + k, 0);
    for (uint64_t i = 0; i < kTableSize; ++i) {
      uint64_t d = i ^ index;
      uint64_t mask = ((d | (0 - d)) >> 63) - 1;  // all ones iff i == index
      for (size_t j = 0; j < k; ++j) sel[j] |= table[i * k + j] & mask;
    }
  };
  // Windows are aligned to bit 0, so none straddles a 32-bit limb. Only the
  // window count (the exponent's bit length) shapes the control flow: every
  // window after the top one costs four squarings and one multiply, by
  // R mod n when the window is 0.
  const std::vector<uint32_t>& e = exp.limbs_;
  auto window = [&](size_t w) -> uint64_t {
    size_t bit = w * kWindowBits;
    return (e[bit / 32] >> (bit % 32)) & (kTableSize - 1);
  };
  size_t windows = (exp.BitLength() + kWindowBits - 1) / kWindowBits;
  if (windows == 0) {
    std::copy(table, table + k, acc);
    return;
  }
  select(window(windows - 1));
  std::copy(sel, sel + k, acc);
  for (size_t w = windows - 1; w-- > 0;) {
    for (size_t s = 0; s < kWindowBits; ++s) Mul(acc, acc, acc, t);
    select(window(w));
    Mul(acc, acc, sel, t);
  }
}

BigNum MontContext::Exp(const BigNum& base, const BigNum& exp) const {
  std::vector<uint64_t> buf(ScratchWords() + k_);
  uint64_t* acc = buf.data();
  uint64_t* scratch = acc + k_;
  PowMont(base, exp, acc, scratch);
  // Out of Montgomery form: acc * 1 * R^-1.
  uint64_t* one = scratch;
  std::fill(one, one + k_, 0);
  one[0] = 1;
  Mul(acc, acc, one, scratch + k_);
  return FromWords(acc);
}

bool MontContext::IsMillerRabinWitness(const BigNum& a, const BigNum& d,
                                       size_t s) const {
  std::vector<uint64_t> buf(ScratchWords() + k_);
  uint64_t* x = buf.data();
  uint64_t* scratch = x + k_;
  PowMont(a, d, x, scratch);
  auto equals = [&](const std::vector<uint64_t>& v) {
    return std::equal(v.begin(), v.end(), x);
  };
  if (equals(one_) || equals(minus_one_)) return false;
  for (size_t i = 0; i + 1 < s; ++i) {
    Mul(x, x, x, scratch);
    if (equals(minus_one_)) return false;
  }
  return true;
}

}  // namespace secureblox::crypto
