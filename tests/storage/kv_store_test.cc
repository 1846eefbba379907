#include "storage/kv_store.h"

#include <gtest/gtest.h>

namespace sbft::storage {
namespace {

TEST(KvStoreTest, GetMissingReturnsNotFound) {
  KvStore store;
  VersionedValue out;
  EXPECT_TRUE(store.Get("nope", &out).IsNotFound());
  EXPECT_FALSE(store.Contains("nope"));
  EXPECT_EQ(store.VersionOf("nope"), 0u);
}

TEST(KvStoreTest, PutThenGet) {
  KvStore store;
  store.Put("k", ToBytes("v1"));
  VersionedValue out;
  ASSERT_TRUE(store.Get("k", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "v1");
  EXPECT_EQ(out.version, 1u);
}

TEST(KvStoreTest, VersionsIncrementPerKey) {
  KvStore store;
  store.Put("a", ToBytes("1"));
  store.Put("a", ToBytes("2"));
  store.Put("a", ToBytes("3"));
  store.Put("b", ToBytes("x"));
  EXPECT_EQ(store.VersionOf("a"), 3u);
  EXPECT_EQ(store.VersionOf("b"), 1u);
  VersionedValue out;
  ASSERT_TRUE(store.Get("a", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "3");
}

TEST(KvStoreTest, DeleteRemovesKey) {
  KvStore store;
  store.Put("k", ToBytes("v"));
  store.Delete("k");
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.VersionOf("k"), 0u);
}

TEST(KvStoreTest, LoadYcsbRecords) {
  KvStore store;
  store.LoadYcsbRecords(1000, 100);
  EXPECT_EQ(store.size(), 1000u);
  VersionedValue out;
  ASSERT_TRUE(store.Get("user0", &out).ok());
  ASSERT_TRUE(store.Get("user999", &out).ok());
  EXPECT_EQ(out.value.size(), 100u);
  EXPECT_FALSE(store.Contains("user1000"));
}

TEST(KvStoreTest, DeleteThenPutRestartsVersion) {
  KvStore store;
  store.Put("k", ToBytes("v1"));
  store.Put("k", ToBytes("v2"));
  store.Delete("k");
  store.Put("k", ToBytes("v3"));
  EXPECT_EQ(store.VersionOf("k"), 1u);
  VersionedValue out;
  ASSERT_TRUE(store.Get("k", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "v3");
  EXPECT_EQ(out.version, 1u);
}

TEST(KvStoreTest, DeleteKeepsOtherKeys) {
  // Deleting from the middle of probe runs must leave every other key
  // reachable, with its own value and version.
  KvStore store;
  for (int i = 0; i < 200; ++i) {
    std::string key = "k" + std::to_string(i);
    for (int v = 0; v <= i % 3; ++v) store.Put(key, ToBytes(key));
  }
  for (int i = 0; i < 200; i += 3) store.Delete("k" + std::to_string(i));
  store.Delete("absent");
  EXPECT_EQ(store.size(), 200u - 67u);
  for (int i = 0; i < 200; ++i) {
    std::string key = "k" + std::to_string(i);
    VersionedValue out;
    if (i % 3 == 0) {
      EXPECT_FALSE(store.Contains(key)) << key;
      continue;
    }
    ASSERT_TRUE(store.Get(key, &out).ok()) << key;
    EXPECT_EQ(BytesToString(out.value), key);
    EXPECT_EQ(out.version, static_cast<uint64_t>(i % 3 + 1)) << key;
  }
}

TEST(KvStoreTest, GrowthPastLoadFactorKeepsEveryKey) {
  // Puts one at a time from an empty table: the slot table doubles many
  // times past its 0.75 load bound.
  KvStore store;
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    store.Put("key-" + std::to_string(i), ToBytes(std::to_string(i)));
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    VersionedValue out;
    ASSERT_TRUE(store.Get("key-" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(BytesToString(out.value), std::to_string(i));
    EXPECT_EQ(out.version, 1u);
  }
  EXPECT_FALSE(store.Contains("key-" + std::to_string(kKeys)));
}

TEST(KvStoreTest, PaperScaleLoadLeavesEveryKeyReadable) {
  // The paper's 600k-record YCSB load phase.
  KvStore store;
  constexpr uint64_t kRecords = 600000;
  store.LoadYcsbRecords(kRecords, 8);
  EXPECT_EQ(store.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(store.VersionOf("user" + std::to_string(i)), 1u) << i;
  }
  EXPECT_FALSE(store.Contains("user" + std::to_string(kRecords)));
}

TEST(KvStoreTest, StatsCountAccesses) {
  KvStore store;
  store.Put("k", ToBytes("v"));
  VersionedValue out;
  store.Get("k", &out).ok();
  store.Get("missing", &out).IsNotFound();
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.reads(), 2u);
}

}  // namespace
}  // namespace sbft::storage
