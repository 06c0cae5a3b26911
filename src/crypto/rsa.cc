#include "crypto/rsa.h"

#include "crypto/sha1.h"

namespace secureblox::crypto {

namespace {

// ASN.1 DigestInfo prefix for SHA-1 (RFC 8017 §9.2).
constexpr uint8_t kSha1DigestInfo[] = {0x30, 0x21, 0x30, 0x09, 0x06,
                                       0x05, 0x2b, 0x0e, 0x03, 0x02,
                                       0x1a, 0x05, 0x00, 0x04, 0x14};

// EMSA-PKCS1-v1_5 encoding of the SHA-1 digest of `message` into `em_len`
// bytes: 0x00 0x01 FF..FF 0x00 DigestInfo digest.
Result<Bytes> EmsaPkcs1V15Encode(const Bytes& message, size_t em_len) {
  Bytes digest = Sha1Digest(message);
  size_t t_len = sizeof(kSha1DigestInfo) + digest.size();
  if (em_len < t_len + 11) {
    return Status::CryptoError("RSA modulus too small for PKCS#1 v1.5");
  }
  Bytes em(em_len, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha1DigestInfo), std::end(kSha1DigestInfo),
            em.begin() + (em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() + (em_len - digest.size()));
  return em;
}

}  // namespace

Bytes RsaPublicKey::Serialize() const {
  ByteWriter w;
  w.PutLengthPrefixed(n.ToBytes());
  w.PutLengthPrefixed(e.ToBytes());
  return w.Take();
}

Result<RsaPublicKey> RsaPublicKey::Deserialize(const Bytes& data) {
  ByteReader r(data);
  SB_ASSIGN_OR_RETURN(Bytes n_bytes, r.GetLengthPrefixed());
  SB_ASSIGN_OR_RETURN(Bytes e_bytes, r.GetLengthPrefixed());
  if (!r.AtEnd()) {
    return Status::CryptoError("trailing bytes after RSA public key");
  }
  RsaPublicKey key;
  key.n = BigNum::FromBytes(n_bytes);
  key.e = BigNum::FromBytes(e_bytes);
  if (!key.n.IsOdd() || key.n.limbs().size() < 2) {
    return Status::CryptoError("RSA modulus must be odd and at least 2^32");
  }
  if (!key.e.IsOdd() || key.e < BigNum::FromU64(3) || key.e >= key.n) {
    return Status::CryptoError("RSA exponent must be odd and in [3, n)");
  }
  key.n_ctx = std::make_shared<const MontContext>(key.n);
  return key;
}

Result<RsaKeyPair> RsaGenerateKeyPair(size_t bits,
                                      const std::function<uint32_t()>& rng) {
  if (bits < 128 || bits % 2 != 0) {
    return Status::InvalidArgument("RSA modulus bits must be even and >= 128");
  }
  const BigNum e = BigNum::FromU64(65537);
  const BigNum one = BigNum::FromU64(1);

  while (true) {
    BigNum p = BigNum::GeneratePrime(bits / 2, rng);
    BigNum q = BigNum::GeneratePrime(bits / 2, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // keep p > q for CRT

    BigNum p1 = BigNum::Sub(p, one);
    BigNum q1 = BigNum::Sub(q, one);
    BigNum phi = BigNum::Mul(p1, q1);
    if (BigNum::Gcd(e, phi) != one) continue;

    RsaKeyPair key;
    key.pub.n = BigNum::Mul(p, q);
    key.pub.e = e;
    if (key.pub.n.BitLength() != bits) continue;
    auto d = BigNum::ModInverse(e, phi);
    if (!d.ok()) continue;
    key.d = std::move(d).value();
    key.p = p;
    key.q = q;
    key.dp = BigNum::Mod(key.d, p1);
    key.dq = BigNum::Mod(key.d, q1);
    auto qinv = BigNum::ModInverse(q, p);
    if (!qinv.ok()) continue;
    key.qinv = std::move(qinv).value();
    key.pub.n_ctx = std::make_shared<const MontContext>(key.pub.n);
    key.p_ctx = std::make_shared<const MontContext>(key.p);
    key.q_ctx = std::make_shared<const MontContext>(key.q);
    return key;
  }
}

Result<Bytes> RsaSign(const RsaKeyPair& key, const Bytes& message) {
  size_t k = key.pub.ModulusBytes();
  SB_ASSIGN_OR_RETURN(Bytes em, EmsaPkcs1V15Encode(message, k));
  BigNum m = BigNum::FromBytes(em);
  if (m >= key.pub.n) return Status::CryptoError("message rep out of range");
  if (!key.p_ctx || !key.q_ctx) {
    return Status::CryptoError("RSA key pair without Montgomery contexts");
  }

  // CRT: s = m^d mod n computed from the halves.
  BigNum s1 = key.p_ctx->Exp(m, key.dp);
  BigNum s2 = key.q_ctx->Exp(m, key.dq);
  // h = qinv * (s1 - s2) mod p
  BigNum diff;
  if (s1 >= s2) {
    diff = BigNum::Sub(s1, s2);
  } else {
    diff = BigNum::Sub(BigNum::Add(s1, key.p), s2);
  }
  BigNum h = BigNum::Mod(BigNum::Mul(key.qinv, diff), key.p);
  BigNum s = BigNum::Add(s2, BigNum::Mul(h, key.q));
  return s.ToBytes(static_cast<int>(k));
}

bool RsaVerify(const RsaPublicKey& key, const Bytes& message,
               const Bytes& signature) {
  size_t k = key.ModulusBytes();
  if (!key.n_ctx || signature.size() != k) return false;
  BigNum s = BigNum::FromBytes(signature);
  if (s >= key.n) return false;
  BigNum m = key.n_ctx->Exp(s, key.e);
  Bytes em = m.ToBytes(static_cast<int>(k));
  auto expected = EmsaPkcs1V15Encode(message, k);
  if (!expected.ok()) return false;
  return ConstantTimeEquals(em, expected.value());
}

}  // namespace secureblox::crypto
