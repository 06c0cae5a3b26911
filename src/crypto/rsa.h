// RSA signatures (PKCS#1 v1.5 with SHA-1 DigestInfo), as evaluated in the
// SecureBlox paper: "RSA authentication signs a SHA-1 digest of the data
// with the private key of the sender ... a 1024-bit keysize".
//
// Signing uses the Chinese Remainder Theorem for the usual ~4x speedup.
// Each key carries the Montgomery context of every modulus it exponentiates
// under (n for verify, p and q for sign), built once when the key is
// generated or parsed; sign and verify share one fixed 4-bit-window
// exponentiation (see MontContext::Exp).
#ifndef SECUREBLOX_CRYPTO_RSA_H_
#define SECUREBLOX_CRYPTO_RSA_H_

#include <functional>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/bignum.h"

namespace secureblox::crypto {

/// Public half of an RSA keypair.
struct RsaPublicKey {
  BigNum n;  // modulus
  BigNum e;  // public exponent (65537)
  /// Montgomery context for n; RsaVerify rejects a key without one.
  std::shared_ptr<const MontContext> n_ctx;

  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }

  /// Wire encoding: len-prefixed n || len-prefixed e.
  Bytes Serialize() const;
  /// Rejects an even modulus or one below 2^32, an even e, e < 3, e >= n
  /// and trailing bytes; key blobs also arrive as untrusted facts.
  static Result<RsaPublicKey> Deserialize(const Bytes& data);
};

/// Full RSA keypair with CRT parameters.
struct RsaKeyPair {
  RsaPublicKey pub;
  BigNum d;      // private exponent
  BigNum p, q;   // prime factors
  BigNum dp, dq; // d mod (p-1), d mod (q-1)
  BigNum qinv;   // q^-1 mod p
  /// Montgomery contexts for p and q; RsaSign fails without them.
  std::shared_ptr<const MontContext> p_ctx, q_ctx;
};

/// Generate a keypair with a modulus of `bits` bits (e = 65537).
/// `rng` supplies uniform 32-bit words (e.g. from HmacDrbg::NextU32).
Result<RsaKeyPair> RsaGenerateKeyPair(size_t bits,
                                      const std::function<uint32_t()>& rng);

/// Sign `message` (PKCS#1 v1.5, SHA-1). Returns a modulus-sized signature.
Result<Bytes> RsaSign(const RsaKeyPair& key, const Bytes& message);

/// Verify a PKCS#1 v1.5 SHA-1 signature.
bool RsaVerify(const RsaPublicKey& key, const Bytes& message,
               const Bytes& signature);

}  // namespace secureblox::crypto

#endif  // SECUREBLOX_CRYPTO_RSA_H_
