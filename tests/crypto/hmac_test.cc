#include "crypto/hmac.h"

#include <gtest/gtest.h>

namespace sbft::crypto {
namespace {

// Test vectors from RFC 4231.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = ToBytes("Hi There");
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Bytes data = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key;
  for (uint8_t i = 1; i <= 25; ++i) key.push_back(i);
  Bytes data(50, 0xcd);
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  Bytes key(131, 0xaa);
  Bytes data = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentTags) {
  Bytes msg = ToBytes("message");
  EXPECT_NE(HmacSha256(ToBytes("key1"), msg), HmacSha256(ToBytes("key2"), msg));
}

TEST(HmacTest, DifferentMessagesDifferentTags) {
  Bytes key = ToBytes("key");
  EXPECT_NE(HmacSha256(key, ToBytes("a")), HmacSha256(key, ToBytes("b")));
}

TEST(HmacTest, RawPointerOverloadMatches) {
  Bytes key = ToBytes("key");
  Bytes msg = ToBytes("payload");
  EXPECT_EQ(HmacSha256(key, msg), HmacSha256(key, msg.data(), msg.size()));
}

TEST(HmacTest, EmptyMessage) {
  Bytes key = ToBytes("key");
  Bytes empty;
  // Just needs to be deterministic and well-defined.
  EXPECT_EQ(HmacSha256(key, empty), HmacSha256(key, empty));
}

TEST(HmacTest, MidstateWithPrefixMatchesConcatenatedMessage) {
  // Keys shorter than, equal to and longer than the block; prefixes and
  // messages that straddle the 55/64-byte padding boundaries.
  for (size_t key_len : {0u, 20u, 64u, 65u, 131u}) {
    Bytes key(key_len);
    for (size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<uint8_t>(i * 7);
    }
    HmacMidstate mid(key);
    for (size_t prefix_len : {0u, 1u, 9u}) {
      for (size_t len : {0u, 1u, 54u, 55u, 63u, 64u, 200u}) {
        Bytes prefix(prefix_len, 0xd5);
        Bytes msg(len);
        for (size_t i = 0; i < len; ++i) msg[i] = static_cast<uint8_t>(i);
        Bytes joined = prefix;
        joined.insert(joined.end(), msg.begin(), msg.end());
        EXPECT_EQ(mid.Mac(prefix.data(), prefix.size(), msg.data(), len),
                  HmacSha256(key, joined))
            << key_len << "/" << prefix_len << "/" << len;
      }
    }
  }
}

}  // namespace
}  // namespace sbft::crypto
