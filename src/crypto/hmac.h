#ifndef SBFT_CRYPTO_HMAC_H_
#define SBFT_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/digest.h"
#include "crypto/sha256.h"

namespace sbft::crypto {

/// \brief An HMAC-SHA256 key with both pad blocks already absorbed.
///
/// Holds the two SHA-256 chaining values after the key's inner and outer
/// pad blocks (64 bytes in all), so a MAC under a long-lived key costs
/// only the message and the outer digest blocks, with no allocation.
class HmacMidstate {
 public:
  /// Zero state; assign a keyed midstate before use.
  HmacMidstate() = default;
  HmacMidstate(const uint8_t* key, size_t len);
  explicit HmacMidstate(const Bytes& key)
      : HmacMidstate(key.data(), key.size()) {}

  /// HMAC-SHA256(key, prefix ‖ message); `prefix` may be empty.
  Digest Mac(const uint8_t* prefix, size_t prefix_len,
             const uint8_t* message, size_t len) const;

 private:
  Sha256::ChainingValue inner_{};
  Sha256::ChainingValue outer_{};
};

/// Computes HMAC-SHA256(key, message) per RFC 2104.
///
/// MACs are the cheap authenticator the shim uses for PREPREPARE/PREPARE
/// (paper §III); pairwise keys come from Diffie–Hellman (see keys.h).
Digest HmacSha256(const Bytes& key, const Bytes& message);

/// Variant taking a raw message range.
Digest HmacSha256(const Bytes& key, const uint8_t* message, size_t len);

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_HMAC_H_
