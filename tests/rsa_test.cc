// RSA keygen / sign / verify, tamper rejection, and DRBG determinism.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/hmac_drbg.h"
#include "crypto/rsa.h"

namespace secureblox::crypto {
namespace {

Bytes B(const std::string& s) { return BytesFromString(s); }

// Shared small (fast) keypair for most tests; generated once.
const RsaKeyPair& TestKey512() {
  static const RsaKeyPair* key = [] {
    HmacDrbg drbg(B("rsa-test-seed-512"));
    auto kp = RsaGenerateKeyPair(512, [&] { return drbg.NextU32(); });
    return new RsaKeyPair(std::move(kp).value());
  }();
  return *key;
}

TEST(RsaTest, KeyGenerationProperties) {
  const RsaKeyPair& k = TestKey512();
  EXPECT_EQ(k.pub.n.BitLength(), 512u);
  EXPECT_EQ(k.pub.e.ToU64(), 65537u);
  EXPECT_EQ(BigNum::Mul(k.p, k.q), k.pub.n);
  EXPECT_NE(k.p, k.q);
  // e*d == 1 mod (p-1)(q-1)
  BigNum phi = BigNum::Mul(BigNum::Sub(k.p, BigNum::FromU64(1)),
                           BigNum::Sub(k.q, BigNum::FromU64(1)));
  EXPECT_EQ(BigNum::Mod(BigNum::Mul(k.pub.e, k.d), phi), BigNum::FromU64(1));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("hello secure world");
  Bytes sig = RsaSign(k, msg).value();
  EXPECT_EQ(sig.size(), k.pub.ModulusBytes());
  EXPECT_TRUE(RsaVerify(k.pub, msg, sig));
}

TEST(RsaTest, CrtSignatureMatchesPlainExponentiation) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("crt check");
  Bytes sig = RsaSign(k, msg).value();
  // Recompute without CRT: sig == em^d mod n.
  BigNum s = BigNum::FromBytes(sig);
  BigNum m = BigNum::ModExp(s, k.pub.e, k.pub.n);
  // Verifying the recovered EM against a fresh encode is what RsaVerify does;
  // this asserts CRT produced a valid RSA signature at all.
  EXPECT_TRUE(RsaVerify(k.pub, msg, sig));
  EXPECT_EQ(BigNum::ModExp(m, k.d, k.pub.n), s);
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  const RsaKeyPair& k = TestKey512();
  Bytes sig = RsaSign(k, B("original")).value();
  EXPECT_FALSE(RsaVerify(k.pub, B("Original"), sig));
}

TEST(RsaTest, VerifyRejectsEverySingleByteFlipInSignature) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("flip test");
  Bytes sig = RsaSign(k, msg).value();
  for (size_t i = 0; i < sig.size(); i += 7) {  // sample positions
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(RsaVerify(k.pub, msg, bad)) << "byte " << i;
  }
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  const RsaKeyPair& k1 = TestKey512();
  HmacDrbg drbg(B("other-key-seed"));
  RsaKeyPair k2 = RsaGenerateKeyPair(512, [&] { return drbg.NextU32(); }).value();
  Bytes msg = B("who signed this?");
  Bytes sig = RsaSign(k1, msg).value();
  EXPECT_FALSE(RsaVerify(k2.pub, msg, sig));
}

TEST(RsaTest, VerifyRejectsWrongSizeSignature) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("size");
  Bytes sig = RsaSign(k, msg).value();
  Bytes shorter(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(RsaVerify(k.pub, msg, shorter));
  Bytes longer = sig;
  longer.push_back(0);
  EXPECT_FALSE(RsaVerify(k.pub, msg, longer));
}

TEST(RsaTest, PublicKeySerializationRoundTrip) {
  const RsaKeyPair& k = TestKey512();
  Bytes wire = k.pub.Serialize();
  RsaPublicKey back = RsaPublicKey::Deserialize(wire).value();
  EXPECT_EQ(back.n, k.pub.n);
  EXPECT_EQ(back.e, k.pub.e);
  EXPECT_FALSE(RsaPublicKey::Deserialize(Bytes{0x01}).ok());
}

bool ParsesAsKey(const BigNum& n, const BigNum& e) {
  ByteWriter w;
  w.PutLengthPrefixed(n.ToBytes());
  w.PutLengthPrefixed(e.ToBytes());
  return RsaPublicKey::Deserialize(w.Take()).ok();
}

TEST(RsaTest, DeserializeRejectsMalformedKeys) {
  const BigNum& n = TestKey512().pub.n;
  const BigNum& e = TestKey512().pub.e;
  auto u = [](uint64_t v) { return BigNum::FromU64(v); };
  ASSERT_TRUE(ParsesAsKey(n, e));
  // Even modulus: no Montgomery context exists for it.
  EXPECT_FALSE(ParsesAsKey(BigNum::Add(n, u(1)), e));
  // Modulus shorter than two 32-bit limbs.
  EXPECT_FALSE(ParsesAsKey(u(0xFFFFFFFB), u(3)));
  // e even, below 3, or not below n.
  EXPECT_FALSE(ParsesAsKey(n, u(65536)));
  EXPECT_FALSE(ParsesAsKey(n, u(1)));
  EXPECT_FALSE(ParsesAsKey(n, BigNum()));
  EXPECT_FALSE(ParsesAsKey(n, n));
  EXPECT_FALSE(ParsesAsKey(n, BigNum::Add(n, u(2))));
  // Trailing bytes after e.
  Bytes trailing = TestKey512().pub.Serialize();
  trailing.push_back(0);
  EXPECT_FALSE(RsaPublicKey::Deserialize(trailing).ok());
}

TEST(RsaTest, DeserializedKeyVerifies) {
  const RsaKeyPair& k = TestKey512();
  RsaPublicKey back = RsaPublicKey::Deserialize(k.pub.Serialize()).value();
  Bytes msg = B("parsed key");
  EXPECT_TRUE(RsaVerify(back, msg, RsaSign(k, msg).value()));
  // A key assembled by hand has no context and verifies nothing.
  RsaPublicKey bare;
  bare.n = k.pub.n;
  bare.e = k.pub.e;
  EXPECT_FALSE(RsaVerify(bare, msg, RsaSign(k, msg).value()));
}

TEST(RsaTest, EmptyAndLargeMessages) {
  const RsaKeyPair& k = TestKey512();
  Bytes empty_sig = RsaSign(k, {}).value();
  EXPECT_TRUE(RsaVerify(k.pub, {}, empty_sig));
  Bytes large(100000, 0x5a);
  Bytes large_sig = RsaSign(k, large).value();
  EXPECT_TRUE(RsaVerify(k.pub, large, large_sig));
  EXPECT_FALSE(RsaVerify(k.pub, large, empty_sig));
}

TEST(RsaTest, PaperKeySize1024) {
  // The paper's configuration: 1024-bit modulus.
  HmacDrbg drbg(B("rsa-1024-seed"));
  RsaKeyPair k = RsaGenerateKeyPair(1024, [&] { return drbg.NextU32(); }).value();
  EXPECT_EQ(k.pub.n.BitLength(), 1024u);
  EXPECT_EQ(k.pub.ModulusBytes(), 128u);  // "256 byte signatures" in the
                                          // paper count sig+key overhead;
                                          // the raw signature is 128 bytes.
  Bytes msg = B("path advertisement");
  Bytes sig = RsaSign(k, msg).value();
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(RsaVerify(k.pub, msg, sig));
  sig[64] ^= 1;
  EXPECT_FALSE(RsaVerify(k.pub, msg, sig));
}

TEST(RsaTest, KnownAnswer1024) {
  // Key generation and PKCS#1 v1.5 signing are deterministic functions of
  // the DRBG seed and the message, so any change to the arithmetic under
  // them must reproduce these bytes exactly.
  HmacDrbg drbg(B("rsa-known-answer-1024"));
  RsaKeyPair k =
      RsaGenerateKeyPair(1024, [&] { return drbg.NextU32(); }).value();
  EXPECT_EQ(k.pub.n.ToHex(),
            "c003235063ab86985b03c7d2b0f4fb9353e7cff881d8bf2ef62f5fa4c37c8c78"
            "e9b82152dcbe90820dabbc1cdafff20e2a5fee6b2b30bc0491984e99758053d0"
            "397a3f3ff892ce6e156d161249109d5afa230cec6deb9400bf3f2df6dfcdaf35"
            "673295b6cdec79d90389719528d829bd58402d0d5c3de5548bdbb276dfe42929");
  Bytes sig = RsaSign(k, B("SecureBlox sealed batch")).value();
  EXPECT_EQ(ToHex(sig),
            "56305133ddfba6e98b71bf0c0ed00516735cb7ccf35df3fb137c58e1b3b0f35e"
            "b56fd32d517fa16d70c2319895f7ac7b77fe5415f911225c18d7b4d9c216e93a"
            "5306ba92f30dedb12c989c4e7642a579621399f8b8ef591537b433239d3da536"
            "ffd73c35ccca0b1143cb974ac00874d46de9e7619ff20f5623f4e53bef88347a");
  EXPECT_TRUE(RsaVerify(k.pub, B("SecureBlox sealed batch"), sig));
}

TEST(RsaTest, RejectsBadKeySizeRequests) {
  HmacDrbg drbg(B("seed"));
  EXPECT_FALSE(RsaGenerateKeyPair(64, [&] { return drbg.NextU32(); }).ok());
  EXPECT_FALSE(RsaGenerateKeyPair(129, [&] { return drbg.NextU32(); }).ok());
}

TEST(HmacDrbgTest, DeterministicForSameSeed) {
  HmacDrbg a(B("seed-1"));
  HmacDrbg b(B("seed-1"));
  EXPECT_EQ(ToHex(a.Generate(64)), ToHex(b.Generate(64)));
}

TEST(HmacDrbgTest, DifferentSeedsDiffer) {
  HmacDrbg a(B("seed-1"));
  HmacDrbg b(B("seed-2"));
  EXPECT_NE(ToHex(a.Generate(64)), ToHex(b.Generate(64)));
}

TEST(HmacDrbgTest, ReseedChangesStream) {
  HmacDrbg a(B("seed"));
  HmacDrbg b(B("seed"));
  (void)a.Generate(16);
  (void)b.Generate(16);
  b.Reseed(B("extra"));
  EXPECT_NE(ToHex(a.Generate(32)), ToHex(b.Generate(32)));
}

TEST(HmacDrbgTest, GenerateSpansRekeyBoundary) {
  HmacDrbg a(B("seed"));
  Bytes big = a.Generate(100);  // > one SHA-256 output
  EXPECT_EQ(big.size(), 100u);
}

}  // namespace
}  // namespace secureblox::crypto
