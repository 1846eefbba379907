#include "crypto/hmac.h"

#include <cstring>

namespace sbft::crypto {

HmacMidstate::HmacMidstate(const uint8_t* key, size_t len) {
  constexpr size_t kBlock = 64;
  // Key normalization and pads live on the stack.
  uint8_t k[kBlock];
  if (len > kBlock) {
    Digest kd = Sha256::Hash(key, len);
    std::memcpy(k, kd.data(), Digest::kSize);
    std::memset(k + Digest::kSize, 0, kBlock - Digest::kSize);
  } else {
    if (len > 0) std::memcpy(k, key, len);
    std::memset(k + len, 0, kBlock - len);
  }

  uint8_t pad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  Sha256 inner;
  inner.Update(pad, kBlock);
  inner_ = inner.chaining_value();

  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  Sha256 outer;
  outer.Update(pad, kBlock);
  outer_ = outer.chaining_value();
}

Digest HmacMidstate::Mac(const uint8_t* prefix, size_t prefix_len,
                         const uint8_t* message, size_t len) const {
  Sha256 inner = Sha256::Resume(inner_, 1);
  if (prefix_len > 0) inner.Update(prefix, prefix_len);
  if (len > 0) inner.Update(message, len);
  Digest inner_digest = inner.Finish();

  Sha256 outer = Sha256::Resume(outer_, 1);
  outer.Update(inner_digest.data(), Digest::kSize);
  return outer.Finish();
}

Digest HmacSha256(const Bytes& key, const uint8_t* message, size_t len) {
  return HmacMidstate(key).Mac(nullptr, 0, message, len);
}

Digest HmacSha256(const Bytes& key, const Bytes& message) {
  return HmacSha256(key, message.data(), message.size());
}

}  // namespace sbft::crypto
