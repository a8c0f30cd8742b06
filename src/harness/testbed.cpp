#include "harness/testbed.h"

#include <cassert>

#include "harness/run_report.h"

namespace pacon::harness {
namespace {

/// MetaClient adapter over the plain DFS client (native BeeGFS baseline).
class DfsMetaClient final : public wl::MetaClient {
 public:
  DfsMetaClient(sim::Simulation& sim, dfs::DfsCluster& cluster, net::NodeId node,
                fs::Credentials creds) {
    dfs::DfsClientConfig cfg;
    cfg.creds = creds;
    client_ = std::make_unique<dfs::DfsClient>(sim, cluster, node, cfg);
  }

  sim::Task<fs::FsResult<void>> mkdir(const fs::Path& path, fs::FileMode mode) override {
    auto r = co_await client_->mkdir(path, mode);
    if (!r) co_return fs::fail(r.error());
    co_return fs::FsResult<void>{};
  }
  sim::Task<fs::FsResult<void>> create(const fs::Path& path, fs::FileMode mode) override {
    auto r = co_await client_->create(path, mode);
    if (!r) co_return fs::fail(r.error());
    co_return fs::FsResult<void>{};
  }
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(const fs::Path& path) override {
    return client_->getattr(path);
  }
  sim::Task<fs::FsResult<void>> unlink(const fs::Path& path) override {
    return client_->unlink(path);
  }
  sim::Task<fs::FsResult<void>> rmdir(const fs::Path& path) override {
    return client_->rmdir(path);
  }
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(const fs::Path& path) override {
    return client_->readdir(path);
  }
  sim::Task<fs::FsResult<std::uint64_t>> write(const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length) override {
    return client_->write(path, offset, length);
  }
  sim::Task<fs::FsResult<std::uint64_t>> read(const fs::Path& path, std::uint64_t offset,
                                              std::uint64_t length) override {
    return client_->read(path, offset, length);
  }
  sim::Task<fs::FsResult<void>> fsync(const fs::Path& path) override {
    return client_->fsync(path);
  }

 private:
  std::unique_ptr<dfs::DfsClient> client_;
};

/// MetaClient adapter over IndexFS; data ops pass through to the DFS (the
/// real IndexFS middleware also delegates file I/O to the underlying DFS).
class IndexFsMetaClient final : public wl::MetaClient {
 public:
  IndexFsMetaClient(sim::Simulation& sim, indexfs::IndexFsCluster& ifs, dfs::DfsCluster& cluster,
                    net::NodeId node, fs::Credentials creds) {
    meta_ = std::make_unique<indexfs::IndexFsClient>(sim, ifs, node, creds);
    dfs::DfsClientConfig cfg;
    cfg.creds = creds;
    data_ = std::make_unique<dfs::DfsClient>(sim, cluster, node, cfg);
  }

  sim::Task<fs::FsResult<void>> mkdir(const fs::Path& path, fs::FileMode mode) override {
    auto r = co_await meta_->mkdir(path, mode);
    if (!r) co_return fs::fail(r.error());
    co_return fs::FsResult<void>{};
  }
  sim::Task<fs::FsResult<void>> create(const fs::Path& path, fs::FileMode mode) override {
    auto r = co_await meta_->create(path, mode);
    if (!r) co_return fs::fail(r.error());
    co_return fs::FsResult<void>{};
  }
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(const fs::Path& path) override {
    return meta_->getattr(path);
  }
  sim::Task<fs::FsResult<void>> unlink(const fs::Path& path) override {
    return meta_->unlink(path);
  }
  sim::Task<fs::FsResult<void>> rmdir(const fs::Path& path) override {
    return meta_->rmdir(path);
  }
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(const fs::Path& path) override {
    return meta_->readdir(path);
  }
  sim::Task<fs::FsResult<std::uint64_t>> write(const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length) override {
    // Data rides on the DFS; IndexFS tracks only metadata. Ensure the file
    // exists there for the data path (idempotent).
    auto attr = co_await meta_->getattr(path);
    if (!attr) co_return fs::fail(attr.error());
    auto created = co_await data_->create(path, attr->mode);
    if (!created && created.error() != fs::FsError::exists) {
      co_return fs::fail(created.error());
    }
    co_return co_await data_->write(path, offset, length);
  }
  sim::Task<fs::FsResult<std::uint64_t>> read(const fs::Path& path, std::uint64_t offset,
                                              std::uint64_t length) override {
    return data_->read(path, offset, length);
  }
  sim::Task<fs::FsResult<void>> fsync(const fs::Path& path) override {
    return data_->fsync(path);
  }

 private:
  std::unique_ptr<indexfs::IndexFsClient> meta_;
  std::unique_ptr<dfs::DfsClient> data_;
};

/// MetaClient adapter over Pacon.
class PaconMetaClient final : public wl::MetaClient {
 public:
  explicit PaconMetaClient(std::unique_ptr<core::Pacon> pacon) : pacon_(std::move(pacon)) {}

  core::Pacon& pacon() { return *pacon_; }

  sim::Task<fs::FsResult<void>> mkdir(const fs::Path& path, fs::FileMode mode) override {
    return pacon_->mkdir(path, mode);
  }
  sim::Task<fs::FsResult<void>> create(const fs::Path& path, fs::FileMode mode) override {
    return pacon_->create(path, mode);
  }
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(const fs::Path& path) override {
    return pacon_->getattr(path);
  }
  sim::Task<fs::FsResult<void>> unlink(const fs::Path& path) override {
    return pacon_->remove(path);
  }
  sim::Task<fs::FsResult<void>> rmdir(const fs::Path& path) override {
    return pacon_->rmdir(path);
  }
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(const fs::Path& path) override {
    return pacon_->readdir(path);
  }
  sim::Task<fs::FsResult<std::uint64_t>> write(const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length) override {
    return pacon_->write(path, offset, length);
  }
  sim::Task<fs::FsResult<std::uint64_t>> read(const fs::Path& path, std::uint64_t offset,
                                              std::uint64_t length) override {
    return pacon_->read(path, offset, length);
  }
  sim::Task<fs::FsResult<void>> fsync(const fs::Path& path) override {
    return pacon_->fsync(path);
  }

 private:
  std::unique_ptr<core::Pacon> pacon_;
};

}  // namespace

TestBed::TestBed(TestBedConfig config) : config_(std::move(config)) {
  sim_ = std::make_unique<sim::Simulation>(config_.seed);

  net::FabricConfig fabric_cfg;
  fabric_cfg.remote_one_way = config_.cal.net_one_way;
  fabric_cfg.bandwidth_bytes_per_sec = config_.cal.net_bandwidth_bytes_per_sec;
  fabric_ = std::make_unique<net::Fabric>(*sim_, fabric_cfg);

  dfs::DfsClusterConfig dfs_cfg;
  dfs_cfg.meta.write_cpu_time = config_.cal.mds_write_cpu;
  dfs_cfg.meta.read_cpu_time = config_.cal.mds_read_cpu;
  dfs_ = std::make_unique<dfs::DfsCluster>(*sim_, *fabric_, dfs_cfg);

  if (config_.kind == SystemKind::indexfs) {
    indexfs_ = std::make_unique<indexfs::IndexFsCluster>(*sim_, *fabric_, config_.indexfs_cfg);
    // Co-located with the client nodes (the paper's fair deployment).
    for (std::size_t i = 0; i < config_.client_nodes; ++i) {
      indexfs_->add_server(client_node(i));
    }
  }
  if (config_.kind == SystemKind::pacon) {
    registry_ = std::make_unique<core::RegionRegistry>(*sim_, *fabric_, *dfs_);
    rt_ = std::make_unique<core::PaconRuntime>(
        core::PaconRuntime{*sim_, *fabric_, *dfs_, *registry_});
  }
  if (timeline_enabled()) {
    recorder_ = std::make_unique<obs::FlightRecorder>(*sim_, config_.recorder);
  }
}

TestBed::~TestBed() {
  const std::string label =
      std::string(to_string(config_.kind)) + "_seed" + std::to_string(config_.seed);
  if (recorder_) {
    // One final frame covers the partial window between the last cadence
    // tick and wherever the scenario stopped the clock.
    recorder_->sample();
    timeline_capture(label, *recorder_);
  }
  // The kernel's event count flows into the registry here, so every bench
  // that enabled a run report gets it with no per-bench plumbing.
  sim_->publish_kernel_metrics();
  report_capture(label, sim_->metrics());
}

void TestBed::provision_workspace(const std::string& path, fs::Credentials creds) {
  dfs::DfsClient admin(*sim_, *dfs_, net::NodeId{90'000});
  sim::run_task(*sim_, [](dfs::DfsClient& io, fs::Path p) -> sim::Task<> {
    (void)co_await io.mkdir(p, fs::FileMode{0x7, 0x7, 0x7});
  }(admin, fs::Path::parse(path)));
  if (config_.kind == SystemKind::indexfs) {
    indexfs::IndexFsClient admin_ifs(*sim_, *indexfs_, net::NodeId{90'000}, creds);
    sim::run_task(*sim_, [](indexfs::IndexFsClient& io, fs::Path p) -> sim::Task<> {
      (void)co_await io.mkdir(p, fs::FileMode{0x7, 0x7, 0x7});
    }(admin_ifs, fs::Path::parse(path)));
  }
}

std::unique_ptr<wl::MetaClient> TestBed::make_client(std::size_t node_index,
                                                     const std::string& workspace,
                                                     fs::Credentials creds,
                                                     std::vector<std::size_t> region_nodes) {
  const net::NodeId node = client_node(node_index);
  switch (config_.kind) {
    case SystemKind::beegfs:
      return std::make_unique<DfsMetaClient>(*sim_, *dfs_, node, creds);
    case SystemKind::indexfs:
      return std::make_unique<IndexFsMetaClient>(*sim_, *indexfs_, *dfs_, node, creds);
    case SystemKind::pacon: {
      core::PaconConfig cfg;
      cfg.workspace = fs::Path::parse(workspace);
      cfg.creds = creds;
      cfg.region = config_.pacon_region;
      if (region_nodes.empty()) {
        for (std::size_t i = 0; i < config_.client_nodes; ++i) {
          cfg.nodes.push_back(client_node(i));
        }
      } else {
        for (const std::size_t i : region_nodes) cfg.nodes.push_back(client_node(i));
      }
      return std::make_unique<PaconMetaClient>(std::make_unique<core::Pacon>(*rt_, node, cfg));
    }
  }
  return nullptr;
}

core::ConsistentRegion* TestBed::pacon_region(const std::string& workspace) {
  if (!registry_) return nullptr;
  return registry_->by_root(fs::Path::parse(workspace));
}

sim::LinkFaultMatrix& TestBed::link_faults(sim::MessageFaultConfig global) {
  if (!link_faults_) {
    link_faults_ =
        std::make_unique<sim::LinkFaultMatrix>(sim_->rng().fork("link-faults"), global);
    link_faults_->bind_metrics(sim_->metrics().scoped("fault"));
    fabric_->set_fault_matrix(link_faults_.get());
  }
  return *link_faults_;
}

}  // namespace pacon::harness
