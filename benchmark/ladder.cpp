// The per-layer ladder: one rung per layer, each timing calls into that
// module's public functions from outside, on the smallest fixture that
// exercises them. A rung reports host nanoseconds per call (the fastest of
// three repetitions on fresh fixtures), the mean virtual latency per call and the
// kernel events each call costs. All inputs derive from the run's seed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/op_message.h"
#include "dfs/client.h"
#include "harness/testbed.h"
#include "indexfs/client.h"
#include "indexfs/indexfs.h"
#include "kv/memcache.h"
#include "lsm/lsm.h"
#include "net/fabric.h"
#include "net/pubsub.h"
#include "net/rpc.h"
#include "sim/disk.h"
#include "sim/simulation.h"
#include "workload/mdtest.h"

namespace pbench {
namespace {

using namespace pacon;
using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 3;
const fs::Credentials kCreds{static_cast<fs::Uid>(1000), static_cast<fs::Gid>(1000)};

struct RungSample {
  double host_ns = 0;
  double v_us = 0;
  double events_per_call = 0;
  std::uint64_t failed = 0;  // calls that returned an error or no value
};

/// Brackets the timed calls of one rung repetition.
class Stopwatch {
 public:
  explicit Stopwatch(sim::Simulation& sim)
      : sim_(sim), t0_(Clock::now()), events0_(sim.events_processed()) {}

  /// `virtual_ns` is the summed virtual latency of the `calls` calls.
  RungSample stop(std::uint64_t calls, std::uint64_t virtual_ns, std::uint64_t failed = 0) const {
    const double host_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0_).count();
    const auto n = static_cast<double>(std::max<std::uint64_t>(calls, 1));
    return RungSample{host_ns / n, static_cast<double>(virtual_ns) / n / 1e3,
                      static_cast<double>(sim_.events_processed() - events0_) / n, failed};
  }

 private:
  sim::Simulation& sim_;
  Clock::time_point t0_;
  std::uint64_t events0_;
};

/// Closed-loop callers of one rung phase.
struct Callers {
  std::uint64_t calls = 0;
  std::uint64_t virtual_ns = 0;
  std::uint64_t failed = 0;
  std::uint64_t done = 0;

  void note(sim::SimTime begin, sim::SimTime end, bool ok) {
    ++calls;
    virtual_ns += end - begin;
    if (!ok) ++failed;
  }
  /// Steps `sim` until `target` callers finished; throws when they cannot.
  /// Failed calls are counted, not thrown: the ladder reports them.
  void wait(sim::Simulation& sim, std::uint64_t target, const char* rung) const {
    while (done < target && sim.step()) {
    }
    if (done < target) throw std::runtime_error(std::string(rung) + ": callers blocked");
  }
};

std::uint64_t count(double base, const Scale& s) {
  return std::max<std::uint64_t>(4, static_cast<std::uint64_t>(base * s.ladder_factor));
}

/// A rung whose body returns one sample per named metric prefix (several
/// rungs share one fixture, e.g. create then getattr).
using RungBody = std::function<std::vector<RungSample>()>;

void add_rungs(Metrics& out, std::uint64_t& failed, const std::vector<std::string>& names,
               const RungBody& body) {
  std::vector<std::vector<RungSample>> reps;
  for (int r = 0; r < kRepetitions; ++r) reps.push_back(body());
  for (std::size_t k = 0; k < names.size(); ++k) {
    double host_ns = reps[0][k].host_ns;
    for (const auto& rep : reps) host_ns = std::min(host_ns, rep[k].host_ns);
    out.add(names[k] + "_ns", host_ns, "ns");
    // Virtual figures are deterministic for the seed: every repetition has
    // the same ones.
    out.add(names[k] + ".v_us", reps[0][k].v_us, "us");
    out.add(names[k] + ".events_per_call", reps[0][k].events_per_call, "count");
    failed += reps[0][k].failed;
    if (reps[0][k].failed != 0) {
      std::printf("  ladder: %llu %s calls failed\n",
                  static_cast<unsigned long long>(reps[0][k].failed), names[k].c_str());
    }
  }
}

// ---- sim: coroutine resume and spawn --------------------------------------

sim::Task<> delay_loop(sim::Simulation& sim, sim::Rng rng, std::uint64_t iters, Callers& c) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    const sim::SimTime begin = sim.now();
    co_await sim.delay(50 + rng.uniform(100));
    c.note(begin, sim.now(), true);
  }
  ++c.done;
}

RungSample sim_resume(std::uint64_t seed, std::uint64_t iters) {
  constexpr std::uint64_t kProcs = 64;
  sim::Simulation sim(seed);
  Callers c;
  for (std::uint64_t p = 0; p < kProcs; ++p) {
    sim.spawn(delay_loop(sim, sim.rng().fork(p), iters, c));
  }
  const Stopwatch sw(sim);
  c.wait(sim, kProcs, "sim.resume");
  return sw.stop(c.calls, c.virtual_ns, c.failed);
}

RungSample sim_spawn(std::uint64_t seed, std::uint64_t spawns) {
  constexpr std::uint64_t kBatch = 4096;
  sim::Simulation sim(seed);
  Callers c;
  const Stopwatch sw(sim);
  for (std::uint64_t spawned = 0; spawned < spawns;) {
    const std::uint64_t n = std::min(kBatch, spawns - spawned);
    for (std::uint64_t i = 0; i < n; ++i) {
      sim.spawn(delay_loop(sim, sim.rng().fork(spawned + i), 1, c));
    }
    spawned += n;
    c.wait(sim, spawned, "sim.spawn");
    sim.reap_completed_roots();
  }
  return sw.stop(c.calls, c.virtual_ns, c.failed);
}

// ---- net: RPC round trip and pub/sub delivery ------------------------------

using EchoRpc = net::RpcService<std::uint64_t, std::uint64_t>;

sim::Task<> rpc_caller(sim::Simulation& sim, EchoRpc& rpc, net::NodeId self, std::uint64_t n,
                       Callers& c) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::SimTime begin = sim.now();
    const std::uint64_t r = co_await rpc.call(self, i);
    c.note(begin, sim.now(), r == i + 1);
  }
  ++c.done;
}

RungSample net_rpc(std::uint64_t seed, std::uint64_t per_caller) {
  constexpr std::uint32_t kCallers = 16;
  sim::Simulation sim(seed);
  net::Fabric fabric(sim, net::FabricConfig{});
  EchoRpc rpc(sim, fabric, net::NodeId{kCallers},
              [](std::uint64_t x) -> sim::Task<std::uint64_t> { co_return x + 1; });
  Callers c;
  for (std::uint32_t k = 0; k < kCallers; ++k) {
    sim.spawn(rpc_caller(sim, rpc, net::NodeId{k}, per_caller, c));
  }
  const Stopwatch sw(sim);
  c.wait(sim, kCallers, "net.rpc");
  return sw.stop(c.calls, c.virtual_ns, c.failed);
}

using Bus = net::PubSubBus<core::OpMessage>;

sim::Task<> subscriber(sim::Simulation& sim, std::shared_ptr<Bus::Subscription>& sub,
                       Callers& c) {
  for (;;) {
    auto msg = co_await sub->recv();
    if (!msg) break;
    c.note(msg->timestamp, sim.now(), true);
  }
  ++c.done;
}

RungSample net_pubsub(std::uint64_t seed, std::uint64_t messages) {
  constexpr std::uint64_t kWave = 512;
  sim::Simulation sim(seed);
  net::Fabric fabric(sim, net::FabricConfig{});
  Bus bus(sim, fabric);
  auto sub = bus.subscribe("commit", net::NodeId{1});
  Callers c;
  sim.spawn(subscriber(sim, sub, c));
  core::OpMessage proto;
  proto.kind = core::OpMessage::Kind::create;
  const Stopwatch sw(sim);
  sim::Rng rng = sim.rng().fork("pubsub");
  for (std::uint64_t sent = 0; sent < messages;) {
    const std::uint64_t n = std::min(kWave, messages - sent);
    for (std::uint64_t i = 0; i < n; ++i) {
      core::OpMessage m = proto;
      m.path = "/bench/" + wl::item_name("file.", static_cast<int>(rng.uniform(320)),
                                         static_cast<int>(sent + i));
      m.op_id = sent + i + 1;
      m.timestamp = sim.now();
      bus.publish(net::NodeId{0}, "commit", std::move(m));
    }
    sent += n;
    while (c.calls < sent && sim.step()) {
    }
  }
  const RungSample out = sw.stop(c.calls, c.virtual_ns, c.failed);
  bus.unsubscribe("commit", sub);
  c.wait(sim, 1, "net.pubsub");
  return out;
}

// ---- kv: cache-cluster set and get ----------------------------------------

std::string kv_key(int rank, std::uint64_t i) {
  return "/bench/" + wl::item_name("file.", rank, static_cast<int>(i));
}

sim::Task<> kv_setter(sim::Simulation& sim, kv::MemCacheCluster& cache, int rank,
                      std::uint64_t n, Callers& c) {
  const net::NodeId self{static_cast<std::uint32_t>(rank)};
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::SimTime begin = sim.now();
    const kv::KvResponse r =
        co_await cache.set(self, kv_key(rank, i), std::string(64, 'a'));
    c.note(begin, sim.now(), r.status == kv::KvStatus::ok);
  }
  ++c.done;
}

sim::Task<> kv_getter(sim::Simulation& sim, kv::MemCacheCluster& cache, int rank, int ranks,
                      std::uint64_t n, sim::Rng rng, Callers& c) {
  const net::NodeId self{static_cast<std::uint32_t>(rank)};
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto who = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ranks)));
    const sim::SimTime begin = sim.now();
    const kv::KvResponse r = co_await cache.get(self, kv_key(who, rng.uniform(n)));
    c.note(begin, sim.now(), r.status == kv::KvStatus::ok);
  }
  ++c.done;
}

std::vector<RungSample> kv_rungs(std::uint64_t seed, std::uint64_t per_caller) {
  constexpr int kNodes = 16;
  sim::Simulation sim(seed);
  net::Fabric fabric(sim, net::FabricConfig{});
  kv::MemCacheCluster cache(sim, fabric, kv::KvConfig{});
  for (int n = 0; n < kNodes; ++n) cache.add_server(net::NodeId{static_cast<std::uint32_t>(n)});
  std::vector<RungSample> out;
  Callers sets;
  for (int k = 0; k < kNodes; ++k) sim.spawn(kv_setter(sim, cache, k, per_caller, sets));
  const Stopwatch sw_set(sim);
  sets.wait(sim, kNodes, "kv.set");
  out.push_back(sw_set.stop(sets.calls, sets.virtual_ns, sets.failed));
  Callers gets;
  for (int k = 0; k < kNodes; ++k) {
    sim.spawn(kv_getter(sim, cache, k, kNodes, per_caller,
                        sim.rng().fork(static_cast<std::uint64_t>(k)), gets));
  }
  const Stopwatch sw_get(sim);
  gets.wait(sim, kNodes, "kv.get");
  out.push_back(sw_get.stop(gets.calls, gets.virtual_ns, gets.failed));
  return out;
}

// ---- metadata clients: create then getattr ---------------------------------

template <typename Client>
sim::Task<> creator(sim::Simulation& sim, Client& client, fs::Path base, int rank,
                    std::uint64_t n, Callers& c) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const fs::Path path = base.child(wl::item_name("file.", rank, static_cast<int>(i)));
    const sim::SimTime begin = sim.now();
    auto r = co_await client.create(path, fs::FileMode::file_default());
    c.note(begin, sim.now(), r.has_value());
  }
  ++c.done;
}

template <typename Client>
sim::Task<> statter(sim::Simulation& sim, Client& client, fs::Path base, int ranks,
                    std::uint64_t n, sim::Rng rng, Callers& c) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto who = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ranks)));
    const fs::Path path =
        base.child(wl::item_name("file.", who, static_cast<int>(rng.uniform(n))));
    const sim::SimTime begin = sim.now();
    auto r = co_await client.getattr(path);
    c.note(begin, sim.now(), r.has_value());
  }
  ++c.done;
}

/// Times a create phase and a getattr phase of `clients` (each doing
/// `per_client` calls). `between`, when set, runs after the creates and
/// before the getattrs, outside both timings, and may add a sample of its own.
template <typename Client>
std::vector<RungSample> create_getattr(sim::Simulation& sim,
                                       std::vector<std::unique_ptr<Client>>& clients,
                                       std::uint64_t per_client, const char* what,
                                       const std::function<void(std::vector<RungSample>&)>& between) {
  const fs::Path base = fs::Path::parse("/bench");
  const auto n = static_cast<int>(clients.size());
  std::vector<RungSample> out;
  Callers creates;
  for (int k = 0; k < n; ++k) {
    sim.spawn(creator(sim, *clients[static_cast<std::size_t>(k)], base, k, per_client, creates));
  }
  const Stopwatch sw_create(sim);
  creates.wait(sim, clients.size(), what);
  out.push_back(sw_create.stop(creates.calls, creates.virtual_ns, creates.failed));
  if (between) between(out);
  Callers stats;
  for (int k = 0; k < n; ++k) {
    sim.spawn(statter(sim, *clients[static_cast<std::size_t>(k)], base, n, per_client,
                      sim.rng().fork(static_cast<std::uint64_t>(k)), stats));
  }
  const Stopwatch sw_stat(sim);
  stats.wait(sim, clients.size(), what);
  out.push_back(sw_stat.stop(stats.calls, stats.virtual_ns, stats.failed));
  return out;
}

/// Region create/getattr through the Pacon client (the cache path), with the
/// commit drain between them: `commit.apply` is host time per op applied to
/// the DFS during the drain -- publish -> DFS apply, not the cache ack.
std::vector<RungSample> region_rungs(std::uint64_t seed, std::uint64_t per_client) {
  constexpr std::size_t kNodes = 4;
  constexpr int kPerNode = 4;
  harness::TestBedConfig cfg;
  cfg.kind = harness::SystemKind::pacon;
  cfg.client_nodes = kNodes;
  cfg.seed = seed;
  harness::TestBed bed(cfg);
  bed.provision_workspace("/bench", kCreds);
  std::vector<std::unique_ptr<wl::MetaClient>> clients;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (int c = 0; c < kPerNode; ++c) clients.push_back(bed.make_client(n, "/bench", kCreds));
  }
  core::ConsistentRegion* region = bed.pacon_region("/bench");
  sim::Simulation& sim = bed.sim();
  std::vector<RungSample> out = create_getattr(
      sim, clients, per_client, "region", [&](std::vector<RungSample>& samples) {
        const std::uint64_t committed0 = region->committed_ops();
        const sim::SimTime begin = sim.now();
        const Stopwatch sw(sim);
        while (region->pending_commits() > 0 && sim.step()) {
        }
        if (region->pending_commits() > 0) throw std::runtime_error("commit.apply: drain stuck");
        const std::uint64_t applied = region->committed_ops() - committed0;
        // v_us here is virtual drain time per applied op (the inverse of the
        // DFS apply rate), not a per-op latency.
        samples.push_back(sw.stop(applied, applied ? (sim.now() - begin) : 0));
      });
  // Order the samples as the names are listed: create, getattr, apply.
  std::swap(out[1], out[2]);
  return out;
}

std::vector<RungSample> dfs_rungs(std::uint64_t seed, std::uint64_t per_client) {
  constexpr std::uint32_t kClients = 16;
  harness::TestBedConfig cfg;
  cfg.kind = harness::SystemKind::beegfs;
  cfg.seed = seed;
  harness::TestBed bed(cfg);
  bed.provision_workspace("/bench", kCreds);
  std::vector<std::unique_ptr<dfs::DfsClient>> clients;
  dfs::DfsClientConfig client_cfg;
  client_cfg.creds = kCreds;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    clients.push_back(
        std::make_unique<dfs::DfsClient>(bed.sim(), bed.dfs(), net::NodeId{k}, client_cfg));
  }
  return create_getattr(bed.sim(), clients, per_client, "dfs", nullptr);
}

std::vector<RungSample> indexfs_rungs(std::uint64_t seed, std::uint64_t per_client) {
  constexpr std::uint32_t kServers = 4;
  constexpr std::uint32_t kClients = 16;
  sim::Simulation sim(seed);
  net::Fabric fabric(sim, net::FabricConfig{});
  indexfs::IndexFsCluster cluster(sim, fabric, indexfs::IndexFsConfig{});
  for (std::uint32_t n = 0; n < kServers; ++n) cluster.add_server(net::NodeId{n});
  indexfs::IndexFsClient admin(sim, cluster, net::NodeId{90'000}, kCreds);
  if (!sim::run_task(sim, admin.mkdir(fs::Path::parse("/bench"), fs::FileMode{0x7, 0x7, 0x7}))) {
    throw std::runtime_error("indexfs rung: workspace mkdir failed");
  }
  std::vector<std::unique_ptr<indexfs::IndexFsClient>> clients;
  for (std::uint32_t k = 0; k < kClients; ++k) {
    clients.push_back(std::make_unique<indexfs::IndexFsClient>(sim, cluster,
                                                               net::NodeId{k % kServers}, kCreds));
  }
  return create_getattr(sim, clients, per_client, "indexfs", nullptr);
}

// ---- lsm: put and get ------------------------------------------------------

sim::Task<> lsm_puts(sim::Simulation& sim, lsm::LsmStore& store,
                     const std::vector<std::string>& keys, Callers& c) {
  for (const std::string& key : keys) {
    const sim::SimTime begin = sim.now();
    co_await store.put(key, std::string(96, 'r'));
    c.note(begin, sim.now(), true);
  }
  ++c.done;
}

sim::Task<> lsm_gets(sim::Simulation& sim, lsm::LsmStore& store,
                     const std::vector<std::string>& keys, sim::Rng rng, Callers& c) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& key = keys[rng.uniform(keys.size())];
    const sim::SimTime begin = sim.now();
    auto v = co_await store.get(key);
    c.note(begin, sim.now(), v.has_value());
  }
  ++c.done;
}

/// A small memtable makes the puts flush and compact and the gets probe
/// tables through the bloom filters and block cache, as IndexFS's stores do
/// once its partitions split and ingest rows.
std::vector<RungSample> lsm_rungs(std::uint64_t seed, std::uint64_t n) {
  sim::Simulation sim(seed);
  sim::SimDisk disk(sim, sim::DiskConfig::nvme());
  lsm::LsmConfig cfg;
  cfg.memtable_bytes = 256ull << 10;
  lsm::LsmStore store(sim, disk, cfg);
  // mdtest-style row keys of seed-drawn clients, as IndexFS stores them.
  sim::Rng rng = sim.rng().fork("keys");
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < n; ++i) {
    keys.push_back(kv_key(static_cast<int>(rng.uniform(320)), i));
  }
  std::vector<RungSample> out;
  Callers puts;
  sim.spawn(lsm_puts(sim, store, keys, puts));
  const Stopwatch sw_put(sim);
  puts.wait(sim, 1, "lsm.put");
  out.push_back(sw_put.stop(puts.calls, puts.virtual_ns, puts.failed));
  Callers gets;
  sim.spawn(lsm_gets(sim, store, keys, sim.rng().fork("gets"), gets));
  const Stopwatch sw_get(sim);
  gets.wait(sim, 1, "lsm.get");
  out.push_back(sw_get.stop(gets.calls, gets.virtual_ns, gets.failed));
  return out;
}

}  // namespace

Metrics run_ladder(std::uint64_t seed, const Scale& s) {
  Metrics out;
  std::uint64_t failed = 0;
  add_rungs(out, failed, {"sim.resume"},
            [&] { return std::vector{sim_resume(seed, count(4000, s))}; });
  add_rungs(out, failed, {"sim.spawn"},
            [&] { return std::vector{sim_spawn(seed, count(100000, s))}; });
  add_rungs(out, failed, {"net.rpc"}, [&] { return std::vector{net_rpc(seed, count(2000, s))}; });
  add_rungs(out, failed, {"net.pubsub"},
            [&] { return std::vector{net_pubsub(seed, count(50000, s))}; });
  add_rungs(out, failed, {"kv.set", "kv.get"}, [&] { return kv_rungs(seed, count(2000, s)); });
  add_rungs(out, failed, {"region.create", "region.getattr", "commit.apply"},
            [&] { return region_rungs(seed, count(500, s)); });
  add_rungs(out, failed, {"dfs.create", "dfs.getattr"},
            [&] { return dfs_rungs(seed, count(300, s)); });
  add_rungs(out, failed, {"lsm.put", "lsm.get"}, [&] { return lsm_rungs(seed, count(20000, s)); });
  add_rungs(out, failed, {"indexfs.create", "indexfs.getattr"},
            [&] { return indexfs_rungs(seed, count(500, s)); });
  out.add("ladder.failed_calls", static_cast<double>(failed), "count");
  return out;
}

}  // namespace pbench
