// Experiment testbed: assembles a full deployment (simulation, fabric, DFS
// cluster, metadata system under test, client processes) behind the
// MetaClient facade so a workload runs unchanged on BeeGFS, IndexFS or
// Pacon.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pacon.h"
#include "dfs/client.h"
#include "dfs/cluster.h"
#include "harness/calibration.h"
#include "indexfs/client.h"
#include "indexfs/indexfs.h"
#include "net/fabric.h"
#include "obs/recorder.h"
#include "sim/simulation.h"
#include "workload/meta_client.h"

namespace pacon::harness {

enum class SystemKind { beegfs, indexfs, pacon };

constexpr const char* to_string(SystemKind k) {
  switch (k) {
    case SystemKind::beegfs: return "BeeGFS";
    case SystemKind::indexfs: return "IndexFS";
    case SystemKind::pacon: return "Pacon";
  }
  return "?";
}

struct TestBedConfig {
  SystemKind kind = SystemKind::beegfs;
  std::size_t client_nodes = 16;
  std::uint64_t seed = 1;
  Calibration cal{};
  /// Pacon region tuning overrides (workspace/nodes filled per client).
  core::RegionConfig pacon_region{};
  /// IndexFS tuning overrides.
  indexfs::IndexFsConfig indexfs_cfg{};
  /// Flight-recorder cadence/capacity, used only when a bench turned the
  /// global timeline on (harness::enable_timeline); ignored otherwise.
  obs::RecorderConfig recorder{};
};

/// One assembled deployment. Owns everything; create clients per workspace.
class TestBed {
 public:
  explicit TestBed(TestBedConfig config);
  /// Contributes a labelled metric snapshot to the global run report -- and,
  /// with the timeline enabled, this bed's flight-recorder ring to the
  /// global timeline -- when a bench enabled them (harness/run_report.h);
  /// otherwise does nothing extra.
  ~TestBed();
  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  sim::Simulation& sim() { return *sim_; }
  net::Fabric& fabric() { return *fabric_; }
  dfs::DfsCluster& dfs() { return *dfs_; }
  const TestBedConfig& config() const { return config_; }
  net::NodeId client_node(std::size_t i) const {
    return net::NodeId{static_cast<std::uint32_t>(i)};
  }

  /// Creates the workspace directory, mode 0777, on the DFS as the
  /// default-credential admin; on IndexFS it is also created there as `creds`.
  void provision_workspace(const std::string& path, fs::Credentials creds);

  /// Client for the system under test, homed on client node `node_index`.
  /// For Pacon, `workspace` and `region_nodes` define/join the consistent
  /// region (region_nodes empty = all client nodes).
  std::unique_ptr<wl::MetaClient> make_client(std::size_t node_index,
                                              const std::string& workspace,
                                              fs::Credentials creds,
                                              std::vector<std::size_t> region_nodes = {});

  /// Direct handle to the Pacon region of `workspace` (Pacon testbeds only).
  core::ConsistentRegion* pacon_region(const std::string& workspace);

  /// Lazily creates a LinkFaultMatrix (stream "link-faults" forked off this
  /// bed's seed), binds its per-link counters under the "fault" metric scope
  /// and installs it on the fabric. `global` applies on first call only;
  /// later calls return the same matrix for adding rules or link flips.
  sim::LinkFaultMatrix& link_faults(sim::MessageFaultConfig global = {});

  /// This bed's flight recorder, or nullptr when the timeline is off.
  obs::FlightRecorder* recorder() { return recorder_.get(); }

 private:
  TestBedConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<dfs::DfsCluster> dfs_;
  std::unique_ptr<indexfs::IndexFsCluster> indexfs_;
  std::unique_ptr<core::RegionRegistry> registry_;
  std::unique_ptr<core::PaconRuntime> rt_;
  std::unique_ptr<sim::LinkFaultMatrix> link_faults_;
  // Declared after sim_ so it is destroyed first; a recorder must never
  // outlive the simulation it is installed on.
  std::unique_ptr<obs::FlightRecorder> recorder_;
};

/// Runs `clients` coroutine loops for warmup+measure and reports the
/// operations completed per second of virtual time inside the window.
struct ThroughputResult {
  std::uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
};

/// A measured op loop: repeatedly invokes `op(i)` (i = running index) until
/// the shared deadline; increments the shared counter inside the window.
struct MeasureContext {
  sim::SimTime window_start = 0;
  sim::SimTime deadline = 0;
  std::uint64_t ops_in_window = 0;
  bool stop = false;
};

}  // namespace pacon::harness
