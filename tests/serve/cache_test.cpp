// The content-addressed result cache: LRU semantics (recency bumps,
// eviction order), the serve.cache.* counter family, and the on-disk
// shard tier — round-trip across a process restart, torn-tail and torn-
// header tolerance (later inserts survive either), malformed lines, and
// the shard naming contract the CI smoke job relies on.
#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace flopsim::serve {
namespace {

namespace fs = std::filesystem;

long counter_value(obs::Registry& reg, const std::string& name) {
  return reg.counter(name).value();
}

std::string temp_dir(const std::string& name) {
  const fs::path p = fs::path(::testing::TempDir()) / name;
  fs::remove_all(p);
  return p.string();
}

TEST(ResultCache, MissThenHit) {
  obs::Registry reg;
  ResultCache cache({.capacity = 8, .dir = "", .shards = 4}, reg);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.insert(1, "body-1");
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "body-1");
  EXPECT_EQ(counter_value(reg, "serve.cache.miss"), 1);
  EXPECT_EQ(counter_value(reg, "serve.cache.hit"), 1);
  EXPECT_EQ(counter_value(reg, "serve.cache.insert"), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  obs::Registry reg;
  ResultCache cache({.capacity = 3, .dir = "", .shards = 4}, reg);
  cache.insert(1, "a");
  cache.insert(2, "b");
  cache.insert(3, "c");
  // Touch 1: recency order is now 1, 3, 2 — so inserting 4 evicts 2.
  ASSERT_TRUE(cache.lookup(1).has_value());
  cache.insert(4, "d");
  EXPECT_EQ(cache.keys_mru_first(),
            (std::vector<std::uint64_t>{4, 1, 3}));
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(counter_value(reg, "serve.cache.eviction"), 1);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ResultCache, ReinsertOnlyRefreshesRecency) {
  obs::Registry reg;
  ResultCache cache({.capacity = 2, .dir = "", .shards = 4}, reg);
  cache.insert(1, "a");
  cache.insert(2, "b");
  cache.insert(1, "a");  // content-addressed: same key, same bytes
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(counter_value(reg, "serve.cache.insert"), 2);
  EXPECT_EQ(counter_value(reg, "serve.cache.eviction"), 0);
}

TEST(ResultCache, ShardPathNaming) {
  EXPECT_EQ(ResultCache::shard_path("/x", 0, 4), "/x/cache-0of4.jsonl");
  EXPECT_EQ(ResultCache::shard_path("/x", 3, 4), "/x/cache-3of4.jsonl");
}

TEST(ResultCache, ShardOfUsesTopKeyBits) {
  obs::Registry reg;
  ResultCache cache({.capacity = 4, .dir = "", .shards = 4}, reg);
  EXPECT_EQ(cache.shard_of(0x0100000000000000ull), 1);
  EXPECT_EQ(cache.shard_of(0x0500000000000000ull), 1);  // 5 % 4
  EXPECT_EQ(cache.shard_of(0x0300000000000000ull), 3);
  // Low bits never matter: one instance's keyspace slice is stable.
  EXPECT_EQ(cache.shard_of(0x03ffffffffffffffull), 3);
}

TEST(ResultCache, DiskTierSurvivesRestart) {
  const std::string dir = temp_dir("serve_cache_restart");
  const std::uint64_t k1 = 0x1122334455667788ull;
  const std::uint64_t k2 = 0xaabbccddeeff0011ull;
  {
    obs::Registry reg;
    ResultCache cache({.capacity = 16, .dir = dir, .shards = 2}, reg);
    cache.insert(k1, "{\"x\": 1}");
    cache.insert(k2, "body with spaces");
  }
  obs::Registry reg2;
  ResultCache reloaded({.capacity = 16, .dir = dir, .shards = 2}, reg2);
  EXPECT_EQ(counter_value(reg2, "serve.cache.disk_loaded"), 2);
  const auto b1 = reloaded.lookup(k1);
  const auto b2 = reloaded.lookup(k2);
  ASSERT_TRUE(b1.has_value());
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(*b1, "{\"x\": 1}");
  EXPECT_EQ(*b2, "body with spaces");
  fs::remove_all(dir);
}

TEST(ResultCache, TornTailDropsOnlyTheFinalAppend) {
  const std::string dir = temp_dir("serve_cache_torn");
  obs::Registry reg;
  {
    ResultCache cache({.capacity = 16, .dir = dir, .shards = 1}, reg);
    cache.insert(1, "first");
    cache.insert(2, "second");
  }
  // Simulate a crash mid-append: chop bytes off the shard's last line.
  const std::string path = ResultCache::shard_path(dir, 0, 1);
  std::string text;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) text += line + "\n";
  }
  ASSERT_GT(text.size(), 4u);
  std::ofstream(path, std::ios::trunc) << text.substr(0, text.size() - 4);

  obs::Registry reg2;
  ResultCache reloaded({.capacity = 16, .dir = dir, .shards = 1}, reg2);
  EXPECT_EQ(counter_value(reg2, "serve.cache.disk_loaded"), 1);
  EXPECT_TRUE(reloaded.lookup(1).has_value());
  EXPECT_FALSE(reloaded.lookup(2).has_value());
  fs::remove_all(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ResultCache, TornShardTailNeverSwallowsLaterInserts) {
  const std::string dir = temp_dir("serve_cache_torn_then_insert");
  {
    obs::Registry reg;
    ResultCache cache({.capacity = 16, .dir = dir, .shards = 1}, reg);
    cache.insert(1, "first");
    cache.insert(2, "second");
  }
  // Tear the last line, then restart and insert two entries.
  const std::string path = ResultCache::shard_path(dir, 0, 1);
  const std::string text = read_file(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << text.substr(0, text.size() - 4);
  {
    obs::Registry reg;
    ResultCache cache({.capacity = 16, .dir = dir, .shards = 1}, reg);
    cache.insert(3, "third");
    cache.insert(4, "fourth");
  }
  obs::Registry reg;
  ResultCache reloaded({.capacity = 16, .dir = dir, .shards = 1}, reg);
  EXPECT_EQ(counter_value(reg, "serve.cache.disk_loaded"), 3);
  EXPECT_EQ(reloaded.lookup(1), "first");
  EXPECT_FALSE(reloaded.lookup(2).has_value());
  EXPECT_EQ(reloaded.lookup(3), "third");
  EXPECT_EQ(reloaded.lookup(4), "fourth");
  fs::remove_all(dir);
}

TEST(ResultCache, ShardWithATornHeaderIsReplacedOnFirstInsert) {
  const std::string dir = temp_dir("serve_cache_torn_header");
  fs::create_directories(dir);
  const std::string path = ResultCache::shard_path(dir, 0, 1);
  std::ofstream(path, std::ios::binary) << "flopsim-cache v1 sha";
  {
    obs::Registry reg;
    ResultCache cache({.capacity = 16, .dir = dir, .shards = 1}, reg);
    EXPECT_EQ(counter_value(reg, "serve.cache.disk_loaded"), 0);
    cache.insert(1, "a");
    cache.insert(2, "b");
  }
  EXPECT_EQ(read_file(path).rfind("flopsim-cache v1 shard=0 of=1\n", 0), 0u);
  obs::Registry reg;
  ResultCache reloaded({.capacity = 16, .dir = dir, .shards = 1}, reg);
  EXPECT_EQ(counter_value(reg, "serve.cache.disk_loaded"), 2);
  EXPECT_EQ(reloaded.lookup(1), "a");
  EXPECT_EQ(reloaded.lookup(2), "b");
  fs::remove_all(dir);
}

TEST(ResultCache, OverlongByteCountIsMalformed) {
  // A 23-digit byte count overflows any integer: the line is malformed,
  // the load stops there, and the entry before it stays.
  const std::string dir = temp_dir("serve_cache_overlong_count");
  fs::create_directories(dir);
  std::ofstream(ResultCache::shard_path(dir, 0, 1), std::ios::binary)
      << "flopsim-cache v1 shard=0 of=1\n"
      << "e 0000000000000001 2 ok\n"
      << "e 0000000000000002 12345678901234567890123 x\n";
  obs::Registry reg;
  std::unique_ptr<ResultCache> cache;
  ASSERT_NO_THROW(cache = std::make_unique<ResultCache>(
                      CacheConfig{.capacity = 16, .dir = dir, .shards = 1},
                      reg));
  EXPECT_EQ(counter_value(reg, "serve.cache.disk_loaded"), 1);
  EXPECT_EQ(cache->lookup(1), "ok");
  EXPECT_FALSE(cache->lookup(2).has_value());
  fs::remove_all(dir);
}

TEST(ResultCache, UnwritableDirFallsBackToMemoryOnly) {
  // A file where the directory should be: create_directories fails and
  // the cache must keep working (memory-only) instead of dying.
  const std::string clash = temp_dir("serve_cache_clash");
  std::ofstream(clash) << "not a directory";
  obs::Registry reg;
  ResultCache cache({.capacity = 4, .dir = clash}, reg);
  cache.insert(1, "a");
  EXPECT_TRUE(cache.lookup(1).has_value());
  fs::remove(clash);
}

TEST(ResultCache, MemoryEvictionNeverTouchesDisk) {
  // The disk tier is the durable design-point library; the LRU bounds
  // only RAM. Evicted entries must still be there after a restart.
  const std::string dir = temp_dir("serve_cache_durable");
  {
    obs::Registry reg;
    ResultCache cache({.capacity = 2, .dir = dir, .shards = 1}, reg);
    cache.insert(1, "a");
    cache.insert(2, "b");
    cache.insert(3, "c");  // evicts 1 from memory
    EXPECT_FALSE(cache.lookup(1).has_value());
  }
  obs::Registry reg2;
  ResultCache reloaded({.capacity = 16, .dir = dir, .shards = 1}, reg2);
  EXPECT_TRUE(reloaded.lookup(1).has_value());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flopsim::serve
