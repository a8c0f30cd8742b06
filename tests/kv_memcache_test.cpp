// Tests for the Memcached substitute: semantics (get/set/add/replace/del,
// CAS), memory accounting, LRU eviction, the hash-carrying item table,
// cluster routing over the ring, and the ring's point placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kv/hash_ring.h"
#include "kv/memcache.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::kv {
namespace {

using net::Fabric;
using net::FabricConfig;
using net::NodeId;
using sim::Simulation;
using sim::Task;

struct Fixture {
  Simulation sim;
  Fabric fabric{sim, FabricConfig{}};
};

KvRequest make(KvRequest::Op op, std::string key, std::string value = {},
               std::uint64_t cas = 0, std::uint32_t flags = 0) {
  return KvRequest{op, std::move(key), std::move(value), cas, flags};
}

TEST(MemCacheServer, SetThenGet) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  auto r = server.apply(make(KvRequest::Op::set, "k", "v", 0, 42));
  EXPECT_EQ(r.status, KvStatus::ok);
  auto g = server.apply(make(KvRequest::Op::get, "k"));
  EXPECT_EQ(g.status, KvStatus::ok);
  EXPECT_EQ(g.value, "v");
  EXPECT_EQ(g.flags, 42u);
  EXPECT_EQ(g.cas, r.cas);
}

TEST(MemCacheServer, GetMissingReturnsNotFound) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "nope")).status, KvStatus::not_found);
}

TEST(MemCacheServer, AddOnlyWhenAbsent) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::add, "k", "v1")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::add, "k", "v2")).status, KvStatus::exists);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "v1");
}

TEST(MemCacheServer, ReplaceOnlyWhenPresent) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::replace, "k", "v")).status, KvStatus::not_found);
  server.apply(make(KvRequest::Op::set, "k", "v1"));
  EXPECT_EQ(server.apply(make(KvRequest::Op::replace, "k", "v2")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "v2");
}

TEST(MemCacheServer, DeleteRemovesItem) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  server.apply(make(KvRequest::Op::set, "k", "v"));
  EXPECT_EQ(server.apply(make(KvRequest::Op::del, "k")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::del, "k")).status, KvStatus::not_found);
  EXPECT_EQ(server.item_count(), 0u);
}

TEST(MemCacheServer, CasVersionsAdvanceMonotonically) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto v1 = server.apply(make(KvRequest::Op::set, "k", "a")).cas;
  const auto v2 = server.apply(make(KvRequest::Op::set, "k", "b")).cas;
  EXPECT_GT(v2, v1);
}

TEST(MemCacheServer, CasSucceedsOnMatchingVersion) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto v = server.apply(make(KvRequest::Op::set, "k", "old")).cas;
  EXPECT_EQ(server.apply(make(KvRequest::Op::cas, "k", "new", v)).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "new");
}

TEST(MemCacheServer, CasFailsOnStaleVersion) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto v = server.apply(make(KvRequest::Op::set, "k", "old")).cas;
  server.apply(make(KvRequest::Op::set, "k", "mid"));  // bumps version
  const auto r = server.apply(make(KvRequest::Op::cas, "k", "new", v));
  EXPECT_EQ(r.status, KvStatus::cas_mismatch);
  EXPECT_GT(r.cas, v);  // reports the current version for retry
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "mid");
}

TEST(MemCacheServer, CasOnMissingKeyIsNotFound) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::cas, "k", "v", 1)).status, KvStatus::not_found);
}

TEST(MemCacheServer, MemoryAccountingTracksMutations) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 10;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "key", "value"));  // 3 + 5 + 10 = 18
  EXPECT_EQ(server.bytes_used(), 18u);
  server.apply(make(KvRequest::Op::set, "key", "v"));  // 3 + 1 + 10 = 14
  EXPECT_EQ(server.bytes_used(), 14u);
  server.apply(make(KvRequest::Op::del, "key"));
  EXPECT_EQ(server.bytes_used(), 0u);
}

TEST(MemCacheServer, LruEvictionDropsColdestFirst) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 30;  // fits three 10-byte items ("kX" + 8-byte value)
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "k1", "12345678"));
  server.apply(make(KvRequest::Op::set, "k2", "12345678"));
  server.apply(make(KvRequest::Op::set, "k3", "12345678"));
  // Touch k1 so k2 becomes the coldest.
  server.apply(make(KvRequest::Op::get, "k1"));
  server.apply(make(KvRequest::Op::set, "k4", "12345678"));
  EXPECT_EQ(server.evictions(), 1u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k2")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k1")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k4")).status, KvStatus::ok);
}

TEST(MemCacheServer, NoSpaceWhenEvictionDisabled) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 10;
  cfg.lru_eviction = false;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "k", "12345678")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "q", "12345678")).status, KvStatus::no_space);
  // The original item is untouched.
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).status, KvStatus::ok);
  // An update that fits is applied in place; one that does not is refused
  // and leaves the old value, with nothing evicted.
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "k", "123456789")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "k", "1234567890")).status,
            KvStatus::no_space);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "123456789");
  EXPECT_EQ(server.bytes_used(), 10u);
  EXPECT_EQ(server.evictions(), 0u);
  // A delete makes room again.
  EXPECT_EQ(server.apply(make(KvRequest::Op::del, "k")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::add, "q", "12345678")).status, KvStatus::ok);
}

TEST(MemCacheServer, OversizeUpdateOfExistingKeyEvictsOthersNotItself) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 20;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "a", "123456789"));  // 10 bytes
  server.apply(make(KvRequest::Op::set, "b", "123456789"));  // 10 bytes
  // Growing "a" to 19 bytes requires evicting "b".
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "a", "123456789012345678")).status,
            KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "b")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "a")).value, "123456789012345678");
}

TEST(MemCacheServer, KeysWithPrefixFindsSubtree) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  server.apply(make(KvRequest::Op::set, "/ws/a", "1"));
  server.apply(make(KvRequest::Op::set, "/ws/b", "2"));
  server.apply(make(KvRequest::Op::set, "/other/c", "3"));
  auto keys = server.keys_with_prefix("/ws/");
  std::set<std::string> got(keys.begin(), keys.end());
  EXPECT_EQ(got, (std::set<std::string>{"/ws/a", "/ws/b"}));
}

KvRequest prehashed(KvRequest::Op op, const std::string& key, std::string value = {}) {
  KvRequest req = make(op, key, std::move(value));
  req.key_hash = sim::Rng::hash(key);
  return req;
}

TEST(MemCacheServer, UnhashedAndPrehashedRequestsReachSameItem) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  server.apply(make(KvRequest::Op::set, "/ws/a", "1"));
  server.apply(prehashed(KvRequest::Op::set, "/ws/b", "2"));
  EXPECT_EQ(server.apply(prehashed(KvRequest::Op::get, "/ws/a")).value, "1");
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "/ws/b")).value, "2");
  EXPECT_EQ(server.apply(prehashed(KvRequest::Op::add, "/ws/a", "x")).status, KvStatus::exists);
  EXPECT_EQ(server.apply(make(KvRequest::Op::replace, "/ws/b", "3")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(prehashed(KvRequest::Op::get, "/ws/b")).value, "3");
  EXPECT_EQ(server.apply(make(KvRequest::Op::del, "/ws/a")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(prehashed(KvRequest::Op::get, "/ws/a")).status, KvStatus::not_found);
  EXPECT_EQ(server.item_count(), 1u);
}

TEST(MemCacheServer, GrowthTo200kItemsKeepsSemanticsAndAccounting) {
  Fixture f;
  KvConfig cfg;
  cfg.lru_eviction = false;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  constexpr int kItems = 200'000;  // well past 65,536: the table rehashes as it grows
  const auto key = [](int i) {
    return "/grow/dir" + std::to_string(i % 97) + "/f" + std::to_string(i);
  };
  std::map<int, std::uint64_t> versions;
  std::uint64_t expect_bytes = 0;
  for (int i = 0; i < kItems; ++i) {
    const std::string k = key(i);
    const std::string v = "v" + std::to_string(i);
    const auto r = server.apply(i % 2 == 0 ? make(KvRequest::Op::add, k, v)
                                           : prehashed(KvRequest::Op::add, k, v));
    ASSERT_EQ(r.status, KvStatus::ok) << k;
    versions[i] = r.cas;
    expect_bytes += k.size() + v.size() + cfg.item_overhead_bytes;
  }
  EXPECT_EQ(server.item_count(), static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(server.bytes_used(), expect_bytes);

  for (int i = 0; i < kItems; i += 7) {
    const std::string k = key(i);
    const auto g = server.apply(make(KvRequest::Op::get, k));
    ASSERT_EQ(g.status, KvStatus::ok) << k;
    EXPECT_EQ(g.value, "v" + std::to_string(i));
    EXPECT_EQ(g.cas, versions[i]);
    EXPECT_EQ(server.apply(make(KvRequest::Op::add, k, "dup")).status, KvStatus::exists);
  }
  // CAS: a stale version is refused, the current one swaps in a longer value.
  for (int i = 1; i < kItems; i += 5) {
    const std::string k = key(i);
    EXPECT_EQ(server.apply(make(KvRequest::Op::cas, k, "stale", versions[i] + 1'000'000)).status,
              KvStatus::cas_mismatch);
    const std::string nv = "cas-" + std::to_string(i);
    ASSERT_EQ(server.apply(make(KvRequest::Op::cas, k, nv, versions[i])).status, KvStatus::ok);
    expect_bytes += nv.size() - ("v" + std::to_string(i)).size();
  }
  EXPECT_EQ(server.bytes_used(), expect_bytes);
  // Delete every third item; the rest stay reachable.
  std::uint64_t deleted = 0;
  for (int i = 0; i < kItems; i += 3) {
    const std::string k = key(i);
    const std::string v = i % 5 == 1 ? "cas-" + std::to_string(i) : "v" + std::to_string(i);
    ASSERT_EQ(server.apply(prehashed(KvRequest::Op::del, k)).status, KvStatus::ok) << k;
    expect_bytes -= k.size() + v.size() + cfg.item_overhead_bytes;
    ++deleted;
  }
  EXPECT_EQ(server.item_count(), kItems - deleted);
  EXPECT_EQ(server.bytes_used(), expect_bytes);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(3))).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(4))).value, "v4");
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(11))).value, "cas-11");
  std::size_t in_dir5 = 0;
  for (int i = 5; i < kItems; i += 97) in_dir5 += i % 3 != 0 ? 1 : 0;
  EXPECT_EQ(server.keys_with_prefix("/grow/dir5/").size(), in_dir5);
}

TEST(MemCacheServer, FlushLeavesReusableEmptyServer) {
  for (const bool lru : {true, false}) {
    Fixture f;
    KvConfig cfg;
    cfg.item_overhead_bytes = 0;
    cfg.capacity_bytes = 30;
    cfg.lru_eviction = lru;
    MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
    server.apply(make(KvRequest::Op::set, "k1", "12345678"));
    server.apply(make(KvRequest::Op::set, "k2", "12345678"));
    server.flush();
    EXPECT_EQ(server.item_count(), 0u);
    EXPECT_EQ(server.bytes_used(), 0u);
    EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k1")).status, KvStatus::not_found);
    EXPECT_TRUE(server.keys_with_prefix("k").empty());
    // Refill to capacity; with eviction on, one more store evicts the
    // coldest post-flush item (the recency list restarted empty).
    for (const char* k : {"k3", "k1", "k4"}) {
      EXPECT_EQ(server.apply(make(KvRequest::Op::add, k, "12345678")).status, KvStatus::ok);
    }
    EXPECT_EQ(server.bytes_used(), 30u);
    EXPECT_EQ(server.apply(make(KvRequest::Op::set, "k5", "12345678")).status,
              lru ? KvStatus::ok : KvStatus::no_space);
    EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k3")).status,
              lru ? KvStatus::not_found : KvStatus::ok);
    EXPECT_EQ(server.evictions(), lru ? 1u : 0u);
  }
}

TEST(MemCacheServer, GetAndUpdateRefreshRecency) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 30;  // three 10-byte items
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  for (const char* k : {"k1", "k2", "k3"}) server.apply(make(KvRequest::Op::set, k, "12345678"));
  // Recency, newest first: k3 k2 k1. A get of k1 makes k2 the next victim.
  server.apply(prehashed(KvRequest::Op::get, "k1"));
  server.apply(make(KvRequest::Op::set, "k4", "12345678"));  // evicts k2 -> k4 k1 k3
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k2")).status, KvStatus::not_found);
  // A same-size update of k3 refreshes it too: k1 is now the coldest.
  server.apply(make(KvRequest::Op::set, "k3", "abcdefgh"));  // k3 k4 k1
  server.apply(make(KvRequest::Op::set, "k5", "12345678"));  // evicts k1 -> k5 k3 k4
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k1")).status, KvStatus::not_found);
  server.apply(make(KvRequest::Op::get, "k4"));              // k4 k5 k3
  server.apply(make(KvRequest::Op::set, "k6", "12345678"));  // evicts k3
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k3")).status, KvStatus::not_found);
  for (const char* k : {"k4", "k5", "k6"}) {
    EXPECT_EQ(server.apply(make(KvRequest::Op::get, k)).status, KvStatus::ok) << k;
  }
  EXPECT_EQ(server.evictions(), 3u);
  EXPECT_EQ(server.bytes_used(), 30u);
}

TEST(MemCacheServer, RpcPathChargesWireAndServiceTime) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto resp = sim::run_task(
      f.sim, server.call(NodeId{1}, make(KvRequest::Op::set, "k", "v")));
  EXPECT_EQ(resp.status, KvStatus::ok);
  // Two remote hops (>= 25us each) plus >= 1.5us service.
  EXPECT_GE(f.sim.now(), 51'500u);
}

TEST(HashRing, DistributesKeysAcrossNodes) {
  HashRing ring;
  for (std::uint32_t n = 0; n < 4; ++n) ring.add_node(NodeId{n});
  std::map<std::uint32_t, int> hits;
  for (int i = 0; i < 10000; ++i) {
    hits[ring.node_for("/dir/file" + std::to_string(i)).value]++;
  }
  ASSERT_EQ(hits.size(), 4u);
  for (const auto& [node, count] : hits) {
    EXPECT_GT(count, 1000) << "node " << node << " underloaded";
    EXPECT_LT(count, 5000) << "node " << node << " overloaded";
  }
}

TEST(HashRing, RemovalOnlyRemapsVictimKeys) {
  HashRing ring;
  for (std::uint32_t n = 0; n < 4; ++n) ring.add_node(NodeId{n});
  std::map<std::string, NodeId> before;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "/k" + std::to_string(i);
    before[key] = ring.node_for(key);
  }
  ring.remove_node(NodeId{2});
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const NodeId now = ring.node_for(key);
    if (owner == NodeId{2}) {
      EXPECT_NE(now, NodeId{2});
    } else {
      if (now != owner) ++moved;
    }
  }
  EXPECT_EQ(moved, 0) << "keys not owned by the removed node must not move";
}

TEST(HashRing, LookupIsStable) {
  HashRing a, b;
  for (std::uint32_t n = 0; n < 8; ++n) {
    a.add_node(NodeId{n});
    b.add_node(NodeId{n});
  }
  for (int i = 0; i < 100; ++i) {
    const std::string key = "/stable" + std::to_string(i);
    EXPECT_EQ(a.node_for(key), b.node_for(key));
  }
}

/// Reference ring built the way add_node used to: one sorted insert per
/// virtual node, the first owner keeping a colliding point. The point mix
/// is HashRing's (splitmix-style over node << 32 | replica).
class PerPointRing {
 public:
  void add_node(NodeId node, std::uint32_t vnodes = 64) {
    for (std::uint32_t r = 0; r < vnodes; ++r) {
      std::uint64_t x = (static_cast<std::uint64_t>(node.value) << 32) | r;
      x ^= x >> 33;
      x *= 0xFF51AFD7ED558CCDull;
      x ^= x >> 33;
      x *= 0xC4CEB9FE1A85EC53ull;
      x ^= x >> 33;
      auto it = std::lower_bound(ring_.begin(), ring_.end(), std::make_pair(x, NodeId{0}),
                                 [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it != ring_.end() && it->first == x) continue;
      ring_.insert(it, {x, node});
    }
  }
  void remove_node(NodeId node) {
    std::erase_if(ring_, [node](const auto& e) { return e.second == node; });
  }
  NodeId owner_at(std::uint64_t position) const {
    auto it = std::lower_bound(ring_.begin(), ring_.end(), std::make_pair(position, NodeId{0}),
                               [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }
  const std::vector<std::pair<std::uint64_t, NodeId>>& points() const { return ring_; }

 private:
  std::vector<std::pair<std::uint64_t, NodeId>> ring_;
};

TEST(HashRing, MergedAddNodeRoutesLikePerPointInsertion) {
  HashRing ring;
  PerPointRing reference;
  // Out-of-order ids, then a removal and a re-add, so merges land between,
  // before and after existing points.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t n = 0; n < 64; ++n) ids.push_back((n * 37) % 64);
  for (const std::uint32_t id : ids) {
    ring.add_node(NodeId{id});
    reference.add_node(NodeId{id});
  }
  ring.remove_node(NodeId{5});
  reference.remove_node(NodeId{5});
  ring.add_node(NodeId{5});
  reference.add_node(NodeId{5});
  ring.add_node(NodeId{1000});
  reference.add_node(NodeId{1000});

  // Ring positions, not key hashes: node_for_hash mixes its argument first,
  // so only owner_at can probe exact points.
  sim::Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t h = rng.next_u64();
    ASSERT_EQ(ring.owner_at(h), reference.owner_at(h)) << "position " << h;
  }
  // Exactly on, just past, and at the ends of every point.
  for (const auto& [point, owner] : reference.points()) {
    EXPECT_EQ(ring.owner_at(point), owner);
    EXPECT_EQ(ring.owner_at(point + 1), reference.owner_at(point + 1));
  }
  EXPECT_EQ(ring.owner_at(0), reference.owner_at(0));
  EXPECT_EQ(ring.owner_at(~std::uint64_t{0}), reference.owner_at(~std::uint64_t{0}));
}

TEST(HashRing, SiblingKeysSpreadAcrossDaemons) {
  // mega-hotdir's hot directories: keys that differ only in their last
  // characters. Placed by raw FNV-1a they shared 2 of 64 daemons (54 on one).
  HashRing ring;
  for (std::uint32_t n = 0; n < 64; ++n) ring.add_node(NodeId{n});
  std::map<std::uint32_t, int> keys_per_owner;
  for (int d = 0; d < 64; ++d) {
    const std::string key = "/bench/d" + std::to_string(d);
    const NodeId owner = ring.node_for(key);
    EXPECT_EQ(owner, ring.node_for_hash(sim::Rng::hash(key)));
    keys_per_owner[owner.value]++;
  }
  EXPECT_GE(keys_per_owner.size(), 32u);
  for (const auto& [owner, count] : keys_per_owner) {
    EXPECT_LE(count, 6) << "daemon " << owner;
  }
}

TEST(MemCacheCluster, RoutesByKeyAndServesAllOps) {
  Fixture f;
  MemCacheCluster cluster(f.sim, f.fabric);
  for (std::uint32_t n = 0; n < 4; ++n) cluster.add_server(NodeId{n});
  sim::run_task(f.sim, [](MemCacheCluster& c) -> Task<> {
    for (int i = 0; i < 64; ++i) {
      const std::string key = "/app/file" + std::to_string(i);
      const auto r = co_await c.set(NodeId{0}, key, "data" + std::to_string(i));
      EXPECT_EQ(r.status, KvStatus::ok);
    }
    for (int i = 0; i < 64; ++i) {
      const std::string key = "/app/file" + std::to_string(i);
      const auto g = co_await c.get(NodeId{0}, key);
      EXPECT_EQ(g.status, KvStatus::ok);
      EXPECT_EQ(g.value, "data" + std::to_string(i));
    }
    const auto d = co_await c.del(NodeId{0}, "/app/file0");
    EXPECT_EQ(d.status, KvStatus::ok);
    const auto miss = co_await c.get(NodeId{0}, "/app/file0");
    EXPECT_EQ(miss.status, KvStatus::not_found);
  }(cluster));
  EXPECT_EQ(cluster.total_items(), 63u);
  EXPECT_GT(cluster.total_bytes_used(), 0u);
  // Items landed on more than one server.
  int populated = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    if (cluster.server_on(NodeId{n}).item_count() > 0) ++populated;
  }
  EXPECT_GT(populated, 1);
}

TEST(MemCacheCluster, UnhashedAndPrehashedCallsReachSameItem) {
  Fixture f;
  MemCacheCluster cluster(f.sim, f.fabric);
  for (std::uint32_t n = 0; n < 4; ++n) cluster.add_server(NodeId{n});
  sim::run_task(f.sim, [](MemCacheCluster& c) -> Task<> {
    for (int i = 0; i < 32; ++i) {
      const std::string key = "/pre/file" + std::to_string(i);
      const std::uint64_t h = sim::Rng::hash(key);
      // Store with one form, read and delete with the other.
      const auto r = co_await c.set(NodeId{0}, key, "d", 0, i % 2 == 0 ? 0 : h);
      EXPECT_EQ(r.status, KvStatus::ok);
      const auto g = co_await c.get(NodeId{1}, key, i % 2 == 0 ? h : 0);
      EXPECT_EQ(g.status, KvStatus::ok);
      EXPECT_EQ(g.cas, r.cas);
      if (i % 4 == 0) {
        const auto d = co_await c.del(NodeId{2}, key, i % 8 == 0 ? h : 0);
        EXPECT_EQ(d.status, KvStatus::ok);
        const auto miss = co_await c.get(NodeId{3}, key);
        EXPECT_EQ(miss.status, KvStatus::not_found);
      }
    }
  }(cluster));
  EXPECT_EQ(cluster.total_items(), 24u);
}

TEST(MemCacheCluster, CasRetryLoopConvergesUnderContention) {
  Fixture f;
  MemCacheCluster cluster(f.sim, f.fabric);
  for (std::uint32_t n = 0; n < 2; ++n) cluster.add_server(NodeId{n});
  // 8 concurrent incrementers, each adding 10 to a shared counter via CAS.
  sim::run_task(f.sim, [](Simulation& s, MemCacheCluster& c) -> Task<> {
    (void)co_await c.set(NodeId{0}, "/counter", "0");
    std::vector<Task<>> workers;
    for (std::uint32_t w = 0; w < 8; ++w) {
      workers.push_back([](MemCacheCluster& cl, std::uint32_t id) -> Task<> {
        for (int i = 0; i < 10; ++i) {
          for (;;) {
            const auto cur = co_await cl.get(NodeId{id % 2}, "/counter");
            const int v = std::stoi(cur.value);
            const auto r = co_await cl.cas(NodeId{id % 2}, "/counter",
                                           std::to_string(v + 1), cur.cas);
            if (r.status == KvStatus::ok) break;
            EXPECT_EQ(r.status, KvStatus::cas_mismatch);
          }
        }
      }(c, w));
    }
    co_await sim::when_all(s, std::move(workers));
    const auto fin = co_await c.get(NodeId{0}, "/counter");
    EXPECT_EQ(fin.value, "80");
  }(f.sim, cluster));
}

}  // namespace
}  // namespace pacon::kv
