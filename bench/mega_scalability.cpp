// Mega scalability: a million simulated clients through the event kernel.
//
// Drives harness::run_mega at full scale -- >= 10^6 client processes,
// wave-spawned, zipf hot-directory load (workload/hotdir), every path
// spelling shared through one fs::PathInterner arena -- and reports how the
// engine holds up: host events/second, wall seconds and arena footprint.
// Host time is not gated; the latest full-scale reading is recorded in
// EXPERIMENTS.md ("Mega scalability").
//
// Usage: mega_scalability [--clients N] [--nodes N] [--wave N]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>

#include "harness/mega_scenario.h"
#include "harness/run_report.h"

int main(int argc, char** argv) {
  using namespace pacon;

  harness::MegaConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--clients") && i + 1 < argc) {
      cfg.clients = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--nodes") && i + 1 < argc) {
      cfg.nodes = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--wave") && i + 1 < argc) {
      cfg.wave = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::cerr << "usage: mega_scalability [--clients N] [--nodes N] [--wave N]\n";
      return 2;
    }
  }
  if (cfg.clients == 0 || cfg.nodes == 0 || cfg.wave == 0) {
    std::cerr << "mega_scalability: counts must be positive\n";
    return 2;
  }

  harness::enable_run_report("mega_scalability");
  harness::enable_timeline("mega_scalability");

  const auto t0 = std::chrono::steady_clock::now();
  const harness::MegaResult r = harness::run_mega(cfg);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const double events_per_sec = wall > 0 ? static_cast<double>(r.events) / wall : 0;
  std::cout << "mega_scalability: " << r.clients_completed << " clients on " << cfg.nodes
            << " nodes\n"
            << "  ops ok/failed      = " << r.ops_ok << " / " << r.ops_failed << "\n"
            << "  events             = " << r.events << " (" << static_cast<std::uint64_t>(
                   events_per_sec) << "/s host)\n"
            << "  wall seconds       = " << wall << "\n"
            << "  virtual seconds    = " << r.virtual_seconds << "\n"
            << "  interned paths     = " << r.interned_paths << " (" << r.interner_bytes
            << " bytes arena; region pending after drain " << r.region_pending_paths << ")\n"
            << "  reaped roots       = " << r.reaped_roots << "\n";

  if (r.clients_completed != cfg.clients || r.ops_failed != 0) {
    std::cerr << "mega_scalability: FAILED (incomplete clients or failed ops)\n";
    return 1;
  }
  return 0;
}
