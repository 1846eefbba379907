#include "crypto/keys.h"

#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sbft::crypto {
namespace {

class KeysTestP : public ::testing::TestWithParam<CryptoMode> {
 protected:
  KeysTestP() : registry_(GetParam(), /*seed=*/7) {
    for (ActorId id = 0; id < 4; ++id) registry_.RegisterNode(id);
  }
  KeyRegistry registry_;
};

TEST_P(KeysTestP, SignVerifyRoundTrip) {
  Bytes msg = ToBytes("commit view=0 seq=1");
  Bytes sig = registry_.Sign(0, msg);
  EXPECT_TRUE(registry_.Verify(0, msg, sig));
}

TEST_P(KeysTestP, VerifyRejectsWrongSigner) {
  Bytes msg = ToBytes("commit");
  Bytes sig = registry_.Sign(0, msg);
  EXPECT_FALSE(registry_.Verify(1, msg, sig));
}

TEST_P(KeysTestP, VerifyRejectsTamperedMessage) {
  Bytes msg = ToBytes("commit");
  Bytes sig = registry_.Sign(2, msg);
  EXPECT_FALSE(registry_.Verify(2, ToBytes("c0mmit"), sig));
}

TEST_P(KeysTestP, VerifyRejectsTamperedSignature) {
  Bytes msg = ToBytes("commit");
  Bytes sig = registry_.Sign(2, msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(registry_.Verify(2, msg, sig));
}

TEST_P(KeysTestP, VerifyUnknownSignerFails) {
  Bytes msg = ToBytes("x");
  Bytes sig = registry_.Sign(0, msg);
  EXPECT_FALSE(registry_.Verify(99, msg, sig));
}

TEST_P(KeysTestP, MacRoundTripBothDirections) {
  Bytes msg = ToBytes("preprepare");
  Digest tag = registry_.Mac(0, 1, msg);
  EXPECT_TRUE(registry_.VerifyMac(0, 1, msg, tag));
  // MAC keys are per unordered pair, so the reverse channel verifies too.
  EXPECT_TRUE(registry_.VerifyMac(1, 0, msg, tag));
}

TEST_P(KeysTestP, MacRejectsOtherPair) {
  Bytes msg = ToBytes("preprepare");
  Digest tag = registry_.Mac(0, 1, msg);
  EXPECT_FALSE(registry_.VerifyMac(0, 2, msg, tag));
}

TEST_P(KeysTestP, MacRejectsTamperedMessage) {
  Digest tag = registry_.Mac(0, 1, ToBytes("a"));
  EXPECT_FALSE(registry_.VerifyMac(0, 1, ToBytes("b"), tag));
}

TEST_P(KeysTestP, SignIsDeterministic) {
  Bytes msg = ToBytes("replay");
  EXPECT_EQ(registry_.Sign(3, msg), registry_.Sign(3, msg));
}

TEST_P(KeysTestP, DistinctSignersProduceDistinctSignatures) {
  Bytes msg = ToBytes("same message");
  EXPECT_NE(registry_.Sign(0, msg), registry_.Sign(1, msg));
}

TEST_P(KeysTestP, RegisterIsIdempotent) {
  Bytes msg = ToBytes("stable");
  Bytes before = registry_.Sign(0, msg);
  registry_.RegisterNode(0);
  EXPECT_EQ(registry_.Sign(0, msg), before);
}

TEST_P(KeysTestP, SignatureSizeIsPositiveAndStable) {
  size_t size = registry_.SignatureSize();
  EXPECT_GT(size, 0u);
  Bytes msg = ToBytes("size probe");
  // kFast signatures are exactly the advertised size; kReal are bounded
  // by it (length-prefixed scalars may shed a leading zero byte).
  EXPECT_LE(registry_.Sign(0, msg).size(), size);
}

INSTANTIATE_TEST_SUITE_P(AllModes, KeysTestP,
                         ::testing::Values(CryptoMode::kFast,
                                           CryptoMode::kReal),
                         [](const auto& info) {
                           return info.param == CryptoMode::kFast ? "Fast"
                                                                  : "Real";
                         });

TEST(KeysTest, IsRegistered) {
  KeyRegistry registry(CryptoMode::kFast);
  EXPECT_FALSE(registry.IsRegistered(5));
  registry.RegisterNode(5);
  EXPECT_TRUE(registry.IsRegistered(5));
}

TEST(KeysTest, DifferentSeedsDifferentKeys) {
  KeyRegistry r1(CryptoMode::kFast, 1);
  KeyRegistry r2(CryptoMode::kFast, 2);
  r1.RegisterNode(0);
  r2.RegisterNode(0);
  Bytes msg = ToBytes("m");
  EXPECT_NE(r1.Sign(0, msg), r2.Sign(0, msg));
}

TEST(KeysTest, FastSignatureIsHmacOfPrefixedMessage) {
  // The kFast signature is pinned byte for byte to its definition,
  // HMAC-SHA256(secret, 0xd5 || msg). Concurrent mode derives the secret
  // as SHA-256(0xcc || seed (8 bytes LE) || id (4 bytes LE)), which this
  // test recomputes.
  constexpr uint64_t kSeed = 0x1234567890abcdefull;
  constexpr ActorId kId = 4242;
  KeyRegistry registry(CryptoMode::kFast, kSeed);
  registry.EnableConcurrent();
  registry.RegisterNode(kId);
  uint8_t material[13] = {0xcc};
  for (int i = 0; i < 8; ++i) {
    material[1 + i] = static_cast<uint8_t>(kSeed >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    material[9 + i] = static_cast<uint8_t>(kId >> (8 * i));
  }
  Bytes secret = Sha256::Hash(material, sizeof(material)).ToBytes();
  for (size_t len : {0u, 1u, 63u, 64u, 300u}) {
    Bytes msg(len, 0x5a);
    Bytes prefixed(len + 1, 0x5a);
    prefixed[0] = 0xd5;
    Bytes expected = HmacSha256(secret, prefixed).ToBytes();
    EXPECT_EQ(registry.Sign(kId, msg), expected) << len;
    EXPECT_TRUE(registry.Verify(kId, msg, expected)) << len;
    Bytes truncated(expected.begin(), expected.end() - 1);
    EXPECT_FALSE(registry.Verify(kId, msg, truncated)) << len;
  }
}

}  // namespace
}  // namespace sbft::crypto
