#include "core/consistency_check.h"

#include <map>
#include <set>

namespace pacon::core {
namespace {

sim::Task<> walk_dfs(dfs::DfsClient& probe, fs::Path dir,
                     std::map<std::string, fs::InodeAttr>& out) {
  auto entries = co_await probe.readdir(dir);
  if (!entries) co_return;
  for (const auto& entry : *entries) {
    const fs::Path child = dir.child(entry.name);
    auto attr = co_await probe.getattr(child);
    if (!attr) continue;  // raced with a concurrent remove
    out.emplace(child.str(), *attr);
    if (entry.type == fs::FileType::directory) co_await walk_dfs(probe, child, out);
  }
}

}  // namespace

sim::Task<ConsistencyReport> check_consistency(ConsistentRegion& region,
                                               dfs::DfsClient& probe) {
  ConsistencyReport report;
  const fs::Path root = region.root();
  const std::string prefix = root.str() + "/";

  // Primary copy: every cached entry under the workspace, across servers,
  // with whether a commit for it was queued at snapshot time. That has to be
  // asked now, not after the walk: a commit that lands after the walk has
  // listed its directory would otherwise be neither listed nor pending.
  struct Snapshot {
    CachedMeta meta;
    bool pending;
  };
  std::map<std::string, Snapshot> cached;
  for (const auto node : region.config().nodes) {
    auto& server = region.cache().server_on(node);
    for (const auto& key : server.keys_with_prefix(prefix)) {
      const auto resp = server.apply(kv::KvRequest{kv::KvRequest::Op::get, key, {}, 0, 0});
      if (resp.status != kv::KvStatus::ok) continue;
      if (auto meta = decode_meta(resp.value)) {
        cached.emplace(key, Snapshot{*meta, region.has_pending(key)});
      }
    }
  }

  // Backup copy: the DFS subtree.
  std::map<std::string, fs::InodeAttr> on_dfs;
  co_await walk_dfs(probe, root, on_dfs);

  for (const auto& [path, snap] : cached) {
    const CachedMeta& meta = snap.meta;
    if (meta.removed) {
      report.marked_removed.push_back(path);
      continue;
    }
    const bool pending = snap.pending || region.has_pending(path);
    auto it = on_dfs.find(path);
    if (it == on_dfs.end()) {
      if (pending) {
        report.in_flight.push_back(path);
      } else {
        report.cache_only.push_back(path);
      }
      continue;
    }
    const bool type_ok = meta.attr.is_dir() == it->second.is_dir();
    const bool size_ok = meta.attr.is_dir() || pending || meta.attr.size == it->second.size;
    if (!type_ok || !size_ok) report.mismatched.push_back(path);
  }
  for (const auto& [path, attr] : on_dfs) {
    (void)attr;
    if (!cached.contains(path)) report.dfs_only.push_back(path);
  }
  co_return report;
}

}  // namespace pacon::core
