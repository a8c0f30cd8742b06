// Tests for the Pacon client facade and consistent-region semantics:
// create/stat/remove flows, cache-vs-DFS consistency, small-file inlining,
// region routing, merge, recovery, and per-node parent-check coalescing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pacon.h"
#include "debug/coro_check.h"
#include "obs/trace.h"
#include "sim/combinators.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

struct World {
  explicit World(std::size_t client_nodes = 2)
      : fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs),
        rt{sim, fabric, dfs, registry} {
    for (std::size_t i = 0; i < client_nodes; ++i) {
      nodes.push_back(net::NodeId{static_cast<std::uint32_t>(i)});
    }
  }

  std::unique_ptr<Pacon> make_client(std::uint32_t node, const std::string& workspace,
                                     PaconConfig base = {}) {
    base.workspace = Path::parse(workspace);
    if (base.nodes.empty()) base.nodes = nodes;
    return std::make_unique<Pacon>(rt, net::NodeId{node}, std::move(base));
  }

  /// Seeds the workspace directory on the DFS (apps get one from the admin).
  void seed_workspace(const std::string& path) {
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io, Path p) -> Task<> {
      (void)co_await io.mkdir(p, fs::FileMode{0x7, 0x7, 0x7});
    }(admin, Path::parse(path)));
  }

  /// Delays every request arriving at the MDS by `delay`, holding DFS
  /// round trips open long enough to interleave other ops with them.
  void slow_mds(sim::SimDuration delay) {
    faults = std::make_unique<sim::LinkFaultMatrix>(sim.rng().fork("link-faults"));
    fabric.set_fault_matrix(faults.get());
    faults->set_node_ingress(dfs.config().mds_node.value,
                             sim::MessageFaultConfig{.delay_prob = 1.0,
                                                     .delay_min = delay,
                                                     .delay_max = delay});
  }

  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
  PaconRuntime rt;
  std::vector<net::NodeId> nodes;
  std::unique_ptr<sim::LinkFaultMatrix> faults;
};

TEST(Pacon, CreateIsVisibleToRegionPeersImmediately) {
  World w;
  w.seed_workspace("/app");
  auto c1 = w.make_client(0, "/app");
  auto c2 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    EXPECT_TRUE((co_await a.create(Path::parse("/app/f"), fs::FileMode::file_default())).has_value());
    // Strong consistency inside the region: peer sees it with no commit wait.
    auto got = co_await b.getattr(Path::parse("/app/f"));
    EXPECT_TRUE(got.has_value());
  }(*c1, *c2));
}

TEST(Pacon, CreateReturnsBeforeDfsCommit) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    // The async op is still pending toward the DFS at return time.
    EXPECT_GT(p.region().pending_commits(), 0u);
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    auto on_dfs = co_await probe.getattr(Path::parse("/app/f"));
    EXPECT_FALSE(on_dfs.has_value()) << "backup copy should lag the cache";
    co_await p.drain();
    auto later = co_await probe.getattr(Path::parse("/app/f"));
    EXPECT_TRUE(later.has_value()) << "commit process must reach the DFS";
  }(w, *c));
}

TEST(Pacon, MkdirChainCommitsInNamespaceOrder) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.mkdir(Path::parse("/app/a"), fs::FileMode::dir_default());
    (void)co_await p.mkdir(Path::parse("/app/a/b"), fs::FileMode::dir_default());
    (void)co_await p.create(Path::parse("/app/a/b/f"), fs::FileMode::file_default());
    co_await p.drain();
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    EXPECT_TRUE((co_await probe.getattr(Path::parse("/app/a/b/f"))).has_value());
  }(w, *c));
}

TEST(Pacon, DuplicateCreateFailsInCache) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    auto again = co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    EXPECT_EQ(again.error(), FsError::exists);
  }(*c));
}

TEST(Pacon, ParentCheckRejectsOrphanCreate) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto r = co_await p.create(Path::parse("/app/nodir/f"), fs::FileMode::file_default());
    EXPECT_EQ(r.error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, ParentCheckOffTrustsApplication) {
  World w;
  w.seed_workspace("/app");
  PaconConfig cfg;
  cfg.region.parent_check = false;
  auto c = w.make_client(0, "/app", cfg);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    // The cache accepts it; the commit process will resubmit until the
    // parent exists (which the app guarantees by creating it eventually).
    auto r = co_await p.create(Path::parse("/app/late/f"), fs::FileMode::file_default());
    EXPECT_TRUE(r.has_value());
    auto r2 = co_await p.mkdir(Path::parse("/app/late"), fs::FileMode::dir_default());
    EXPECT_TRUE(r2.has_value());
    co_await p.drain();
    auto got = co_await p.getattr(Path::parse("/app/late/f"));
    EXPECT_TRUE(got.has_value());
  }(*c));
}

TEST(Pacon, RemoveMarksThenDeletesAfterCommit) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    co_await p.drain();
    EXPECT_TRUE((co_await p.remove(Path::parse("/app/f"))).has_value());
    // Marked removed: reads inside the region already miss it.
    EXPECT_EQ((co_await p.getattr(Path::parse("/app/f"))).error(), FsError::not_found);
    co_await p.drain();
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    EXPECT_EQ((co_await probe.getattr(Path::parse("/app/f"))).error(), FsError::not_found);
  }(w, *c));
}

TEST(Pacon, RemoveOfUnknownFileIsNotFound) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    EXPECT_EQ((co_await p.remove(Path::parse("/app/ghost"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, GetattrMissLoadsFromDfs) {
  World w;
  w.seed_workspace("/app");
  // File pre-exists on the DFS (created by some earlier job).
  dfs::DfsClient admin(w.sim, w.dfs, net::NodeId{90'000});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    (void)co_await io.create(Path::parse("/app/old"), fs::FileMode::file_default());
  }(admin));
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto got = co_await p.getattr(Path::parse("/app/old"));
    EXPECT_TRUE(got.has_value());
    // Second hit is served by the cache.
    auto again = co_await p.getattr(Path::parse("/app/old"));
    EXPECT_TRUE(again.has_value());
  }(*c));
}

TEST(Pacon, RmdirSeesAllPriorCreates) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    (void)co_await p.create(Path::parse("/app/d/f"), fs::FileMode::file_default());
    // The barrier forces the queued create to the DFS first, so rmdir must
    // observe a non-empty directory even though the create was async.
    EXPECT_EQ((co_await p.rmdir(Path::parse("/app/d"))).error(), FsError::not_empty);
    (void)co_await p.remove(Path::parse("/app/d/f"));
    EXPECT_TRUE((co_await p.rmdir(Path::parse("/app/d"))).has_value());
    EXPECT_EQ((co_await p.getattr(Path::parse("/app/d"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, ReaddirReflectsAsyncCreates) {
  World w;
  w.seed_workspace("/app");
  auto c1 = w.make_client(0, "/app");
  auto c2 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    for (int i = 0; i < 10; ++i) {
      (void)co_await a.create(Path::parse("/app/d/f" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    auto entries = co_await b.readdir(Path::parse("/app/d"));
    EXPECT_TRUE(entries.has_value());
    if (entries) { EXPECT_EQ(entries->size(), 10u); }
  }(*c1, *c2));
}

TEST(Pacon, SmallFileInlineRoundTrip) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/small"), fs::FileMode::file_default());
    auto wrote = co_await p.write(Path::parse("/app/small"), 0, 1024);
    EXPECT_TRUE(wrote.has_value());
    auto attr = co_await p.getattr(Path::parse("/app/small"));
    EXPECT_TRUE(attr.has_value());
    if (attr) { EXPECT_EQ(attr->size, 1024u); }
    auto bytes = co_await p.read(Path::parse("/app/small"), 0, 4096);
    EXPECT_TRUE(bytes.has_value());
    if (bytes) { EXPECT_EQ(*bytes, 1024u); }
  }(*c));
}

TEST(Pacon, LargeFileRedirectsToDfs) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/big"), fs::FileMode::file_default());
    // 1 MiB exceeds the 4 KiB inline threshold: write-through to the DFS.
    auto wrote = co_await p.write(Path::parse("/app/big"), 0, 1 << 20);
    EXPECT_TRUE(wrote.has_value());
    std::uint64_t stored = 0;
    for (std::size_t i = 0; i < world.dfs.storage_count(); ++i) {
      stored += world.dfs.storage(i).bytes_written();
    }
    EXPECT_GE(stored, 1u << 20);
    auto bytes = co_await p.read(Path::parse("/app/big"), 0, 1 << 20);
    EXPECT_TRUE(bytes.has_value());
  }(w, *c));
}

TEST(Pacon, SmallFileConcurrentWritersConvergeViaCas) {
  World w;
  w.seed_workspace("/app");
  auto c1 = w.make_client(0, "/app");
  auto c2 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Simulation& s, Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.create(Path::parse("/app/shared"), fs::FileMode::file_default());
    std::vector<Task<>> writers;
    writers.push_back([](Pacon& p) -> Task<> {
      for (int i = 0; i < 20; ++i) (void)co_await p.write(Path::parse("/app/shared"), 0, 512);
    }(a));
    writers.push_back([](Pacon& p) -> Task<> {
      for (int i = 0; i < 20; ++i) (void)co_await p.write(Path::parse("/app/shared"), 512, 512);
    }(b));
    co_await sim::when_all(s, std::move(writers));
    auto attr = co_await a.getattr(Path::parse("/app/shared"));
    EXPECT_TRUE(attr.has_value());
    if (attr) { EXPECT_EQ(attr->size, 1024u); }
  }(w.sim, *c1, *c2));
}

TEST(Pacon, FsyncOnUncommittedFileUsesSpill) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    (void)co_await p.write(Path::parse("/app/f"), 0, 2048);
    // Create/write have not committed; fsync must still succeed durably.
    EXPECT_TRUE((co_await p.fsync(Path::parse("/app/f"))).has_value());
  }(*c));
}

TEST(Pacon, AccessOutsideWorkspaceRedirectsToDfs) {
  World w;
  w.seed_workspace("/app");
  w.seed_workspace("/other");
  dfs::DfsClient admin(w.sim, w.dfs, net::NodeId{90'000});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    (void)co_await io.create(Path::parse("/other/x"), fs::FileMode::file_default());
  }(admin));
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto got = co_await p.getattr(Path::parse("/other/x"));
    EXPECT_TRUE(got.has_value());
    EXPECT_TRUE((co_await p.create(Path::parse("/other/y"), fs::FileMode::file_default()))
                    .has_value());
  }(*c));
  EXPECT_EQ(w.registry.region_count(), 1u);
}

TEST(Pacon, OverlappingWorkspacesShareTheEnclosingRegion) {
  World w;
  w.seed_workspace("/app");
  auto outer = w.make_client(0, "/app");
  PaconConfig inner_cfg;
  auto inner = w.make_client(1, "/app/sub", inner_cfg);
  // Use case 3: both run in the region rooted at /app.
  EXPECT_EQ(&outer->region(), &inner->region());
  EXPECT_EQ(w.registry.region_count(), 1u);
}

TEST(Pacon, MergedRegionIsReadableNotWritable) {
  World w;
  w.seed_workspace("/app1");
  w.seed_workspace("/app2");
  auto a = w.make_client(0, "/app1");
  PaconConfig cfg2;
  cfg2.nodes = {net::NodeId{1}};
  auto b = w.make_client(1, "/app2", cfg2);
  sim::run_task(w.sim, [](Pacon& app1, Pacon& app2) -> Task<> {
    (void)co_await app2.create(Path::parse("/app2/data"), fs::FileMode::file_default());
    EXPECT_TRUE((co_await app1.merge_region(Path::parse("/app2"))).has_value());
    // Consistent read of the other workspace straight from its cache.
    auto got = co_await app1.getattr(Path::parse("/app2/data"));
    EXPECT_TRUE(got.has_value());
    // Read-only: mutations are rejected (Section III.D.4).
    auto denied = co_await app1.create(Path::parse("/app2/mine"), fs::FileMode::file_default());
    EXPECT_EQ(denied.error(), FsError::permission);
  }(*a, *b));
}

TEST(Pacon, MergeUnknownRegionFails) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    EXPECT_EQ((co_await p.merge_region(Path::parse("/nope"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, CheckpointAndRestoreRollBackTheWorkspace) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/keep"), fs::FileMode::file_default());
    auto ckpt = co_await p.checkpoint();
    EXPECT_TRUE(ckpt.has_value());
    if (!ckpt) co_return;
    (void)co_await p.create(Path::parse("/app/lost"), fs::FileMode::file_default());
    co_await p.drain();
    EXPECT_TRUE((co_await p.restore(*ckpt)).has_value());
    EXPECT_TRUE((co_await p.getattr(Path::parse("/app/keep"))).has_value());
    EXPECT_EQ((co_await p.getattr(Path::parse("/app/lost"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, NodeFailureRecoveryViaCheckpoint) {
  World w(3);
  w.seed_workspace("/app");
  auto c0 = w.make_client(0, "/app");
  auto c1 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.create(Path::parse("/app/stable"), fs::FileMode::file_default());
    auto ckpt = co_await a.checkpoint();
    EXPECT_TRUE(ckpt.has_value());
    if (!ckpt) co_return;
    // Work after the checkpoint, then node 1 dies with ops in flight.
    (void)co_await b.create(Path::parse("/app/inflight"), fs::FileMode::file_default());
    world.fabric.set_node_down(net::NodeId{1}, true);
    a.region().detach_failed_node(net::NodeId{1});
    // Roll the region back; the surviving client resumes from the ckpt.
    EXPECT_TRUE((co_await a.restore(*ckpt)).has_value());
    EXPECT_TRUE((co_await a.getattr(Path::parse("/app/stable"))).has_value());
    EXPECT_EQ((co_await a.getattr(Path::parse("/app/inflight"))).error(), FsError::not_found);
    // And can keep working.
    EXPECT_TRUE((co_await a.create(Path::parse("/app/post"), fs::FileMode::file_default()))
                    .has_value());
    co_await a.drain();
  }(w, *c0, *c1));
}

TEST(Pacon, EvictionKeepsWorkingSetUsable) {
  World w;
  PaconConfig cfg;
  cfg.nodes = w.nodes;
  cfg.region.cache.capacity_bytes = 256 << 10;  // small caches to force pressure
  cfg.region.eviction_period = 1_ms;
  cfg.region.eviction_high_water = 0.5;
  cfg.region.eviction_low_water = 0.3;
  w.seed_workspace("/tight");
  cfg.workspace = Path::parse("/tight");
  auto tight = std::make_unique<Pacon>(w.rt, net::NodeId{0}, cfg);
  std::vector<std::string> created;
  sim::run_task(w.sim, [](Pacon& p, std::vector<std::string>& made) -> Task<> {
    for (int d = 0; d < 8; ++d) {
      const std::string dir = "/tight/d" + std::to_string(d);
      (void)co_await p.mkdir(Path::parse(dir), fs::FileMode::dir_default());
      for (int i = 0; i < 300; ++i) {
        const std::string f = dir + "/f" + std::to_string(i);
        auto r = co_await p.create(Path::parse(f), fs::FileMode::file_default());
        if (r) made.push_back(f);
      }
    }
    co_await p.drain();
  }(*tight, created));
  // Creations overwhelmingly succeed despite the pressure.
  EXPECT_GT(created.size(), 2000u);
  w.sim.run_for(1_s);  // let the evictor catch up
  EXPECT_GT(tight->region().evicted_entries(), 0u);
  EXPECT_EQ(tight->region().evicted_entries(),
            w.sim.metrics().counter("region._tight.evicted_entries").value());
  // Everything created is still reachable (evicted entries reload from DFS).
  sim::run_task(w.sim, [](Pacon& p, const std::vector<std::string>& made) -> Task<> {
    for (std::size_t i = 0; i < made.size(); i += 97) {
      auto got = co_await p.getattr(Path::parse(made[i]));
      EXPECT_TRUE(got.has_value()) << made[i];
    }
  }(*tight, created));
}

// ---- Parent-check coalescing ------------------------------------------------

/// One client per entry of `on`, each on that node (one Pacon per client,
/// as in the benchmarks).
std::vector<std::unique_ptr<Pacon>> clients_on(World& w, const std::vector<std::uint32_t>& on) {
  std::vector<std::unique_ptr<Pacon>> clients;
  for (const std::uint32_t node : on) clients.push_back(w.make_client(node, "/app"));
  return clients;
}

// lint-allow: coro-param-ref every caller's Pacon is a named client that outlives the run_task
Task<FsError> create_status(Pacon& p, Path path) {
  auto r = co_await p.create(path, fs::FileMode::file_default());
  co_return r ? FsError::ok : r.error();
}

/// Client i creates `dir`/f<i>; all start at the same instant.
std::vector<FsError> create_concurrently(World& w, std::vector<std::unique_ptr<Pacon>>& clients,
                                         const std::string& dir) {
  std::vector<Task<FsError>> ops;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ops.push_back(create_status(*clients[i], Path::parse(dir + "/f" + std::to_string(i))));
  }
  return sim::run_task(w.sim, sim::when_all_values(w.sim, std::move(ops)));
}

std::uint64_t coalesced_checks(World& w) {
  return w.sim.metrics().counter("region._app.parent_checks_coalesced").value();
}

TEST(Pacon, ConcurrentParentChecksOnOneNodeSendOneGetattr) {
  World w;
  w.seed_workspace("/app");
  auto clients = clients_on(w, std::vector<std::uint32_t>(20, 0));
  const std::uint64_t before = w.dfs.mds().ops_served();
  const std::vector<FsError> results = create_concurrently(w, clients, "/app");
  // Read before any of the creates' asynchronous commits reach the MDS: the
  // one request so far is the leader's getattr of the cold workspace root.
  EXPECT_EQ(w.dfs.mds().ops_served() - before, 1u);
  for (const FsError e : results) EXPECT_EQ(e, FsError::ok);
  EXPECT_EQ(coalesced_checks(w), 19u);
  EXPECT_EQ(clients[0]->region().parent_checks_in_flight(), 0u);
  sim::run_task(w.sim, clients[0]->drain());
  dfs::DfsClient probe(w.sim, w.dfs, net::NodeId{90'001});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((co_await io.getattr(Path::parse("/app/f" + std::to_string(i)))).has_value());
    }
  }(probe));
}

TEST(Pacon, ParentChecksCoalescePerNodeNotAcrossNodes) {
  World w;
  w.seed_workspace("/app");
  std::vector<std::uint32_t> on(10, 0);
  on.insert(on.end(), 10, 1);
  auto clients = clients_on(w, on);
  const std::uint64_t before = w.dfs.mds().ops_served();
  const std::vector<FsError> results = create_concurrently(w, clients, "/app");
  EXPECT_EQ(w.dfs.mds().ops_served() - before, 2u);  // one leader per node
  for (const FsError e : results) EXPECT_EQ(e, FsError::ok);
  EXPECT_EQ(coalesced_checks(w), 18u);
}

TEST(Pacon, OrphanCreateFailsForTheLeaderAndEveryWaiter) {
  World w;
  w.seed_workspace("/app");
  auto clients = clients_on(w, std::vector<std::uint32_t>(5, 0));
  for (const FsError e : create_concurrently(w, clients, "/app/nodir")) {
    EXPECT_EQ(e, FsError::not_found);
  }
  EXPECT_EQ(coalesced_checks(w), 4u);
  EXPECT_EQ(clients[0]->region().parent_checks_in_flight(), 0u);
}

/// Client `late` (node 0) creates /app/d/f2 while client `early` (node 0)
/// has a getattr of the uncached /app/d in flight at a slowed MDS. With
/// `remove_between`, client `other` (node 1) removes a file in between, so
/// the late check starts under a newer invalidation epoch.
struct LateCheck {
  std::uint64_t coalesced = 0;  // checks that waited on a leader
  std::size_t dfs_getattrs = 0;  // DFS getattrs the two creates sent
};

LateCheck late_parent_check(bool remove_between) {
  World w;
  w.seed_workspace("/app");
  w.seed_workspace("/app/d");
  auto early = w.make_client(0, "/app");
  auto late = w.make_client(0, "/app");
  auto other = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    EXPECT_TRUE((co_await p.create(Path::parse("/app/x"), fs::FileMode::file_default()))
                    .has_value());
    co_await p.drain();
  }(*other));
  const std::uint64_t before = coalesced_checks(w);
  w.slow_mds(1_ms);
  obs::Tracer tracer(w.sim);
  w.sim.set_tracer(&tracer);
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b, Pacon& o, bool remove) -> Task<> {
    std::vector<Task<FsError>> ops;
    ops.push_back(create_status(a, Path::parse("/app/d/f1")));
    ops.push_back([](World& wd, Pacon& late_client, Pacon& remover, bool rm) -> Task<FsError> {
      if (rm) {
        EXPECT_TRUE((co_await remover.remove(Path::parse("/app/x"))).has_value());
      } else {
        co_await wd.sim.delay(50_us);
      }
      co_return co_await create_status(late_client, Path::parse("/app/d/f2"));
    }(world, b, o, remove));
    for (const FsError e : co_await sim::when_all_values(world.sim, std::move(ops))) {
      EXPECT_EQ(e, FsError::ok);
    }
  }(w, *early, *late, *other, remove_between));
  w.sim.set_tracer(nullptr);
  LateCheck out;
  out.coalesced = coalesced_checks(w) - before;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "dfs.getattr") ++out.dfs_getattrs;
  }
  return out;
}

TEST(Pacon, ParentCheckJoinsAnInFlightCheckOfTheSameParent) {
  const LateCheck got = late_parent_check(/*remove_between=*/false);
  EXPECT_EQ(got.coalesced, 1u);
  EXPECT_EQ(got.dfs_getattrs, 1u);
}

TEST(Pacon, ParentCheckAfterARemovalRunsItsOwnGetattr) {
  // The in-flight check began before the removal bumped the invalidation
  // epoch; joining it could hand out an "exists" the removal made stale.
  const LateCheck got = late_parent_check(/*remove_between=*/true);
  EXPECT_EQ(got.coalesced, 0u);
  EXPECT_EQ(got.dfs_getattrs, 2u);
}

TEST(Pacon, WaiterJoiningWhileAMkdirReplyIsInFlightSeesTheDirectory) {
  World w;
  w.seed_workspace("/app");
  // The early and late creates run on the node that owns /app/d's cache
  // entry, the mkdir on the other one, so the mkdir's cache add is applied
  // well before its reply gets back to the maker.
  auto probe = w.make_client(0, "/app");
  const std::uint32_t owner = probe->region().cache().ring().node_for("/app/d").value;
  const std::uint32_t other = 1 - owner;
  auto early = w.make_client(owner, "/app");
  auto late = w.make_client(owner, "/app");
  auto maker = w.make_client(other, "/app");
  // Warm /app into the cache, the maker's parent hints and the early node's
  // DFS client, so the mkdir never touches the MDS and the early check of
  // /app/d costs one MDS request.
  sim::run_task(w.sim, [](Pacon& e, Pacon& m) -> Task<> {
    (void)co_await e.create(Path::parse("/app/warm"), fs::FileMode::file_default());
    (void)co_await m.create(Path::parse("/app/warm2"), fs::FileMode::file_default());
    co_await e.drain();
  }(*early, *maker));
  w.slow_mds(1_ms);
  w.faults->set_node_ingress(other, sim::MessageFaultConfig{.delay_prob = 1.0,
                                                            .delay_min = 1_ms,
                                                            .delay_max = 1_ms});
  sim::run_task(w.sim, [](World& world, Pacon& e, Pacon& l, Pacon& m,
                          std::uint32_t on) -> Task<> {
    std::vector<Task<FsError>> ops;
    // The early check misses /app/d in the cache and waits on the MDS.
    ops.push_back(create_status(e, Path::parse("/app/d/f1")));
    ops.push_back([](World& wd, Pacon& mk) -> Task<FsError> {
      co_await wd.sim.delay(50_us);
      auto made = co_await mk.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
      co_return made ? FsError::ok : made.error();
    }(world, m));
    // A peer reads /app/d from the cache as soon as the mkdir's add lands,
    // then the late create starts: the mkdir's reply is still in flight, and
    // the late check joins the early one.
    ops.push_back([](World& wd, Pacon& peer, Pacon& late_client,
                     std::uint32_t node) -> Task<FsError> {
      const auto mkdir_reply_due = wd.sim.now() + 50_us + 1_ms;
      while ((co_await peer.region().cache().get(net::NodeId{node}, "/app/d")).status !=
             kv::KvStatus::ok) {
        co_await wd.sim.delay(2_us);
      }
      EXPECT_TRUE(wd.sim.now() < mkdir_reply_due);
      co_return co_await create_status(late_client, Path::parse("/app/d/f2"));
    }(world, e, l, on));
    const std::vector<FsError> results = co_await sim::when_all_values(world.sim, std::move(ops));
    EXPECT_EQ(results[0], FsError::not_found);  // began before the mkdir
    EXPECT_EQ(results[1], FsError::ok);
    EXPECT_EQ(results[2], FsError::ok);
  }(w, *early, *late, *maker, owner));
  EXPECT_EQ(coalesced_checks(w), 1u);
  EXPECT_EQ(early->region().parent_checks_in_flight(), 0u);
}

TEST(Pacon, RestoreInvalidatesParentHints) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto ckpt = co_await p.checkpoint();
    EXPECT_TRUE(ckpt.has_value());
    if (!ckpt) co_return;
    // The mkdir leaves a parent hint for /app/d; the rollback removes /app/d.
    EXPECT_TRUE((co_await p.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default()))
                    .has_value());
    co_await p.drain();
    EXPECT_TRUE((co_await p.restore(*ckpt)).has_value());
    auto orphan = co_await p.create(Path::parse("/app/d/f"), fs::FileMode::file_default());
    EXPECT_EQ(orphan.error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, RestoreThatFailsMidCopyStillInvalidatesParentHints) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  const auto ckpt = sim::run_task(w.sim, [](Pacon& p) -> Task<fs::FsResult<std::uint64_t>> {
    auto id = co_await p.checkpoint();
    EXPECT_TRUE((co_await p.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default()))
                    .has_value());
    co_await p.drain();
    co_return id;
  }(*c));
  ASSERT_TRUE(ckpt.has_value());
  // Another user adds to the checkpoint a directory the region's credentials
  // cannot search: the rollback removes /app/d, then its copy fails there.
  dfs::DfsClient stranger(w.sim, w.dfs, net::NodeId{90'002},
                          dfs::DfsClientConfig{.creds = fs::Credentials{9, 9}});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    auto saved = co_await io.readdir(Path::parse("/.pacon"));
    EXPECT_TRUE(saved.has_value() && saved->size() == 1);
    if (!saved || saved->empty()) co_return;
    const Path locked = Path::parse("/.pacon").child(saved->front().name).child("locked");
    EXPECT_TRUE((co_await io.mkdir(locked, fs::FileMode{0x7, 0x0, 0x0})).has_value());
    EXPECT_TRUE((co_await io.create(locked.child("f"), fs::FileMode::file_default()))
                    .has_value());
  }(stranger));
  sim::run_task(w.sim, [](Pacon& p, std::uint64_t id) -> Task<> {
    EXPECT_EQ((co_await p.restore(id)).error(), FsError::permission);
    EXPECT_FALSE((co_await p.getattr(Path::parse("/app/d"))).has_value());
    auto orphan = co_await p.create(Path::parse("/app/d/f"), fs::FileMode::file_default());
    EXPECT_EQ(orphan.error(), FsError::not_found);
  }(*c, *ckpt));
}

TEST(Pacon, TeardownWithParkedParentCheckWaitersReportsNothing) {
  if (!debug::coro_checking_enabled()) {
    GTEST_SKIP() << "coroutine-lifetime detector not compiled in (PACON_DEBUG_COROS=OFF)";
  }
  std::vector<debug::CoroReport> reports;
  debug::set_coro_report_handler([&reports](const debug::CoroReport& r) { reports.push_back(r); });
  {
    World w;
    w.seed_workspace("/app");
    w.slow_mds(1_ms);
    auto clients = clients_on(w, std::vector<std::uint32_t>(5, 0));
    for (std::size_t i = 0; i < clients.size(); ++i) {
      w.sim.spawn([](Pacon& p, Path path) -> Task<> {
        (void)co_await p.create(path, fs::FileMode::file_default());
      }(*clients[i], Path::parse("/app/f" + std::to_string(i))));
    }
    w.sim.run_for(100_us);
    // The leader's getattr is still on its way to the MDS; four waiters are
    // parked on its verdict when everything is torn down.
    EXPECT_EQ(clients[0]->region().parent_checks_in_flight(), 1u);
    EXPECT_EQ(coalesced_checks(w), 4u);
  }
  debug::set_coro_report_handler(nullptr);
  for (const debug::CoroReport& r : reports) {
    ADD_FAILURE() << debug::to_string(r.kind) << " [" << r.tag << "]: " << r.detail;
  }
}

}  // namespace
}  // namespace pacon::core
