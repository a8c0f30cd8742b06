// Micro-benchmarks of the substrates (google-benchmark): simulation-kernel
// event throughput, KV-server semantics speed, hash-ring lookups, LSM store
// operations, and path parsing. These measure *host* performance of the
// simulator itself (how fast experiments run), not simulated time.
#include <benchmark/benchmark.h>

#include <utility>

#include "fs/path.h"
#include "kv/hash_ring.h"
#include "kv/memcache.h"
#include "lsm/lsm.h"
#include "sim/simulation.h"

using namespace pacon;

namespace {

void BM_SimEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn([](sim::Simulation& s) -> sim::Task<> {
      for (int i = 0; i < 10'000; ++i) co_await s.delay(10);
    }(sim));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimEventDispatch);

void BM_ChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Channel<int> ch(sim);
    sim.spawn([](sim::Channel<int>& c) -> sim::Task<> {
      for (int i = 0; i < 5'000; ++i) (void)co_await c.send(i);
      c.close();
    }(ch));
    sim.spawn([](sim::Channel<int>& c) -> sim::Task<> {
      while (co_await c.recv()) {
      }
    }(ch));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 5'000);
}
BENCHMARK(BM_ChannelPingPong);

void BM_MemCacheApply(benchmark::State& state) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  kv::MemCacheServer server(sim, fabric, net::NodeId{0});
  std::uint64_t i = 0;
  for (auto _ : state) {
    kv::KvRequest req{kv::KvRequest::Op::set, "/k" + std::to_string(i % 10'000),
                      "value-payload", 0, 0};
    benchmark::DoNotOptimize(server.apply(std::move(req)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemCacheApply);

void BM_HashRingLookup(benchmark::State& state) {
  kv::HashRing ring;
  for (std::uint32_t n = 0; n < 16; ++n) ring.add_node(net::NodeId{n});
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.node_for("/app/dir/file" + std::to_string(i++ % 100'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRingLookup);

void BM_PathParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs::Path::parse("/scratch/app/run42/output/partition/file.dat"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathParse);

void BM_PathPrefixQuery(benchmark::State& state) {
  const fs::Path region = fs::Path::parse("/scratch/app");
  const fs::Path file = fs::Path::parse("/scratch/app/run42/output/file.dat");
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.is_prefix_of(file));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathPrefixQuery);

void BM_LsmPutGet(benchmark::State& state) {
  sim::Simulation sim;
  sim::SimDisk disk(sim, sim::DiskConfig::nvme());
  lsm::LsmStore store(sim, disk);
  std::uint64_t i = 0;
  for (auto _ : state) {
    sim::run_task(sim, [](lsm::LsmStore& s, std::uint64_t k) -> sim::Task<> {
      co_await s.put("/d/f" + std::to_string(k % 50'000), "attr-blob-64-bytes");
      benchmark::DoNotOptimize(co_await s.get("/d/f" + std::to_string(k % 50'000)));
    }(store, i++));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LsmPutGet);

void BM_BloomFilterProbe(benchmark::State& state) {
  lsm::BloomFilter bloom(100'000, 10);
  for (int i = 0; i < 100'000; ++i) bloom.insert("/d/f" + std::to_string(i));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom.may_contain("/d/f" + std::to_string(i++ % 200'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomFilterProbe);

}  // namespace

BENCHMARK_MAIN();
