// Unit tests for the small core pieces: cached-entry codec, epoch
// coordinator, both LRU/TTL caches, and the IndexFS attr codec.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <type_traits>

#include "core/epoch.h"
#include "core/meta_entry.h"
#include "fs/lru_cache.h"
#include "indexfs/codec.h"
#include "sim/simulation.h"

namespace pacon {
namespace {

using sim::Simulation;
using sim::Task;
using namespace sim::literals;

TEST(MetaEntryCodec, RoundTripPlain) {
  core::CachedMeta m;
  m.attr.ino = 42;
  m.attr.type = fs::FileType::directory;
  m.attr.size = 123;
  m.attr.uid = 7;
  const auto decoded = core::decode_meta(core::encode_meta(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(MetaEntryCodec, RoundTripFlagsAndInlineData) {
  core::CachedMeta m;
  m.removed = true;
  m.large_file = true;
  m.inline_bytes = 2048;
  const std::string blob = core::encode_meta(m);
  // Footprint includes the inline payload (memory accounting).
  EXPECT_GT(blob.size(), 2048u);
  const auto decoded = core::decode_meta(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->removed);
  EXPECT_TRUE(decoded->large_file);
  EXPECT_EQ(decoded->inline_bytes, 2048u);
}

TEST(MetaEntryCodec, RejectsCorruptBlobs) {
  EXPECT_FALSE(core::decode_meta("").has_value());
  EXPECT_FALSE(core::decode_meta("short").has_value());
  core::CachedMeta m;
  m.inline_bytes = 100;
  std::string blob = core::encode_meta(m);
  blob.resize(blob.size() - 1);  // truncated payload
  EXPECT_FALSE(core::decode_meta(blob).has_value());
}

TEST(IndexFsCodec, RoundTrip) {
  fs::InodeAttr attr;
  attr.ino = 77;
  attr.type = fs::FileType::file;
  attr.size = 4096;
  const auto decoded = indexfs::decode_attr(indexfs::encode_attr(attr));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, attr);
  EXPECT_FALSE(indexfs::decode_attr("garbage").has_value());
}

TEST(EpochCoordinator, SingleNodeRoundTrip) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 1);
  EXPECT_EQ(epochs.current_epoch(), 0u);
  bool drained = false;
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_all_drained(0);
    out = true;
  }(epochs, drained));
  sim.run();
  EXPECT_FALSE(drained);
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_TRUE(drained);
  epochs.complete_epoch(0);
  EXPECT_EQ(epochs.current_epoch(), 1u);
}

TEST(EpochCoordinator, WaitsForAllNodes) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 3);
  bool drained = false;
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_all_drained(0);
    out = true;
  }(epochs, drained));
  epochs.node_reached_barrier(0);
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_FALSE(drained);
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_TRUE(drained);
}

TEST(EpochCoordinator, GatesFutureEpochOps) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 1);
  std::vector<int> order;
  // Two committers blocked on epoch 1.
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](core::EpochCoordinator& e, std::vector<int>& ord, int id) -> Task<> {
      co_await e.wait_epoch_open(1);
      ord.push_back(id);
    }(epochs, order, i));
  }
  sim.run();
  EXPECT_TRUE(order.empty());
  epochs.node_reached_barrier(0);
  epochs.complete_epoch(0);
  sim.run();
  EXPECT_EQ(order.size(), 2u);
}

TEST(EpochCoordinator, PastEpochsPassImmediately) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 1);
  epochs.node_reached_barrier(0);
  epochs.complete_epoch(0);
  bool passed = false;
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_epoch_open(0);  // already closed epoch
    co_await e.wait_epoch_open(1);  // currently open epoch
    out = true;
  }(epochs, passed));
  sim.run();
  EXPECT_TRUE(passed);
}

// LruTtlCache (string keys: the DFS dentry and IndexFS lease caches) and
// HashLruTtlCache (path-hash keys: Pacon's parent-hint cache) share their
// TTL and LRU rules; each case below runs on both.
template <typename Cache>
auto key(std::string_view path) {
  if constexpr (std::is_same_v<Cache, fs::LruTtlCache<int>>) {
    return std::string(path);
  } else {
    return fs::Path::parse(path).hash();
  }
}

template <typename Cache>
void check_insert_find_forget() {
  Cache cache(4, 1000);
  const auto a = key<Cache>("/a");
  cache.insert(a, 1, 0);
  ASSERT_NE(cache.find(a, 10), nullptr);
  EXPECT_EQ(*cache.find(a, 10), 1);
  if constexpr (requires { cache.erase(a); }) {
    cache.erase(a);
  } else {
    cache.clear();
  }
  EXPECT_EQ(cache.find(a, 10), nullptr);
}

template <typename Cache>
void check_ttl_expires() {
  Cache cache(4, 100);
  const auto a = key<Cache>("/a");
  cache.insert(a, 1, 0);
  EXPECT_NE(cache.find(a, 100), nullptr);  // at expiry edge: valid
  EXPECT_EQ(cache.find(a, 101), nullptr);  // past expiry
}

template <typename Cache>
void check_capacity_evicts_lru() {
  Cache cache(2, 1000);
  const auto a = key<Cache>("/a");
  const auto b = key<Cache>("/b");
  const auto c = key<Cache>("/c");
  cache.insert(a, 1, 0);
  cache.insert(b, 2, 0);
  (void)cache.find(a, 1);  // a is now most-recent
  cache.insert(c, 3, 0);   // evicts b
  EXPECT_NE(cache.find(a, 2), nullptr);
  EXPECT_EQ(cache.find(b, 2), nullptr);
  EXPECT_NE(cache.find(c, 2), nullptr);
}

template <typename Cache>
void check_zero_capacity_never_stores() {
  Cache cache(0, 1000);
  const auto a = key<Cache>("/a");
  cache.insert(a, 1, 0);
  EXPECT_EQ(cache.find(a, 0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

template <typename Cache>
void check_update_refreshes_value_and_ttl() {
  Cache cache(4, 100);
  const auto a = key<Cache>("/a");
  cache.insert(a, 1, 0);
  cache.insert(a, 2, 50);  // refresh at t=50 -> expires at 150
  ASSERT_NE(cache.find(a, 120), nullptr);
  EXPECT_EQ(*cache.find(a, 120), 2);
  EXPECT_EQ(cache.size(), 1u);
}

using StringCache = fs::LruTtlCache<int>;
using HashCache = fs::HashLruTtlCache<int>;

TEST(LruTtlCache, InsertFindErase) { check_insert_find_forget<StringCache>(); }
TEST(LruTtlCache, TtlExpires) { check_ttl_expires<StringCache>(); }
TEST(LruTtlCache, CapacityEvictsLru) { check_capacity_evicts_lru<StringCache>(); }
TEST(LruTtlCache, ZeroCapacityNeverStores) { check_zero_capacity_never_stores<StringCache>(); }
TEST(LruTtlCache, UpdateRefreshesValueAndTtl) {
  check_update_refreshes_value_and_ttl<StringCache>();
}

TEST(HashLruTtlCache, InsertFindClear) { check_insert_find_forget<HashCache>(); }
TEST(HashLruTtlCache, TtlExpires) { check_ttl_expires<HashCache>(); }
TEST(HashLruTtlCache, CapacityEvictsLru) { check_capacity_evicts_lru<HashCache>(); }
TEST(HashLruTtlCache, ZeroCapacityNeverStores) { check_zero_capacity_never_stores<HashCache>(); }
TEST(HashLruTtlCache, UpdateRefreshesValueAndTtl) {
  check_update_refreshes_value_and_ttl<HashCache>();
}

}  // namespace
}  // namespace pacon
