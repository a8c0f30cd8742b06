#include "core/region.h"

#include <algorithm>
#include <stdexcept>
#include <set>

#include "obs/trace.h"
#include "sim/combinators.h"

namespace pacon::core {

using fs::FsError;
using fs::FsResult;

namespace {

/// Key prefix covering the subtree strictly under `dir` plus the dir itself.
std::string subtree_prefix(const fs::Path& dir) {
  return dir.is_root() ? std::string("/") : dir.str() + "/";
}

/// The workspace root with '/' flattened to '_', to name the region's
/// metric namespace ("region.<tag>": '.' is the scope separator, '/' would
/// read as nested scopes) and its checkpoints.
std::string root_tag(const fs::Path& root) {
  std::string tag = root.str();
  std::replace(tag.begin(), tag.end(), '/', '_');
  return tag;
}

/// The region's evictor owns space management; the cache daemons must not
/// drop entries behind its back (Section III.F).
kv::KvConfig region_cache_config(kv::KvConfig cache) {
  cache.lru_eviction = false;
  return cache;
}

/// CPU cost of a local (client-side) batch permission match.
constexpr sim::SimDuration kPermissionCheckCpu = 400_ns;
/// Caller-side cost of pushing one operation message into the commit queue
/// (serialization + the ZeroMQ-style socket write).
constexpr sim::SimDuration kQueuePublishCpu = 12_us;

}  // namespace

ConsistentRegion::ConsistentRegion(sim::Simulation& sim, net::Fabric& fabric,
                                   dfs::DfsCluster& dfs, RegionConfig config)
    : sim_(sim),
      fabric_(fabric),
      dfs_(dfs),
      config_(std::move(config)),
      permissions_(config_.normal_permission),
      metrics_(sim.metrics().scoped("region." + root_tag(config_.root))),
      cache_(std::make_unique<kv::MemCacheCluster>(sim, fabric,
                                                   region_cache_config(config_.cache))),
      pipeline_(sim, fabric, *cache_, config_.root, metrics_, config_.nodes.size()),
      degraded_gauge_(metrics_.gauge("degraded_latch")),
      degraded_(metrics_.counter("degraded_ops")),
      evicted_(metrics_.counter("evicted_entries")),
      coalesced_(metrics_.counter("parent_checks_coalesced")) {
  if (!config_.root.valid() || config_.nodes.empty()) {
    throw std::invalid_argument("ConsistentRegion: workspace path and nodes are required");
  }
  members_.reserve(config_.nodes.size());
  for (const auto node : config_.nodes) {
    cache_->add_server(node);
    Member& member = members_.emplace_back();
    member.node = node;
    member.dfs = make_dfs_client(node);
    member.spill_disk = std::make_unique<sim::SimDisk>(sim_, sim::DiskConfig::nvme());
    member.commit = &pipeline_.add_node(node, *member.dfs);
  }
  sim_.spawn(evictor_loop());
}

ConsistentRegion::~ConsistentRegion() { stop_evictor_ = true; }

ConsistentRegion::Member* ConsistentRegion::find_member(net::NodeId node) {
  for (Member& member : members_) {
    if (member.node == node) return &member;
  }
  return nullptr;
}

dfs::DfsClient& ConsistentRegion::reader_dfs(net::NodeId node) {
  if (Member* member = find_member(node)) return *member->dfs;
  std::unique_ptr<dfs::DfsClient>& client = reader_dfs_clients_[node.value];
  if (!client) client = make_dfs_client(node);
  return *client;
}

std::unique_ptr<dfs::DfsClient> ConsistentRegion::make_dfs_client(net::NodeId node) {
  dfs::DfsClientConfig dfs_cfg;
  dfs_cfg.creds = config_.creds;
  // Only this region's committers write the workspace subtree on the DFS, and
  // drop_dfs_dentries() runs wherever one of its directories goes away, so
  // directory dentries need no dentry_ttl revalidation here.
  dfs_cfg.trust_dir_dentries = true;
  return std::make_unique<dfs::DfsClient>(sim_, dfs_, node, dfs_cfg);
}

void ConsistentRegion::drop_dfs_dentries() {
  for (const Member& member : members_) member.dfs->invalidate_cache();
  for (const auto& [node, client] : reader_dfs_clients_) client->invalidate_cache();
}

fs::Path ConsistentRegion::checkpoint_path(std::uint64_t id) const {
  return fs::Path::parse("/.pacon").child("ckpt" + root_tag(config_.root) + "_" +
                                          std::to_string(id));
}

void ConsistentRegion::note_degraded(obs::SpanId span) {
  degraded_.add();
  degraded_gauge_.set(1);
  if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr && span != obs::kNoSpan) {
    tracer->event(span, "degraded_passthrough");
  }
}

// ---- Permission & parent checks -------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::check_permission(net::NodeId from,
                                                             const fs::Path& path,
                                                             fs::Access access,
                                                             obs::SpanId span) {
  if (config_.batch_permission) {
    // One local match against the predefined table (Section III.C).
    co_await sim_.delay(kPermissionCheckCpu);
    if (!permissions_.check(path, config_.creds, access)) {
      co_return fs::fail(FsError::permission);
    }
    co_return FsResult<void>{};
  }
  // Ablation: hierarchical checking -- walk every ancestor inside the region
  // through the distributed cache (or DFS on miss), the traversal Pacon is
  // designed to avoid.
  std::vector<fs::Path> chain;
  for (fs::Path p = path; contains(p); p = p.parent()) {
    chain.push_back(p);
    if (p == config_.root) break;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const bool leaf = (*it == path);
    const fs::Access want = leaf ? access : fs::Access::execute;
    auto meta = co_await cache_get(from, *it, span);
    if (meta) {
      if (!fs::permits(meta->attr.mode, meta->attr.uid, meta->attr.gid, config_.creds, want)) {
        co_return fs::fail(FsError::permission);
      }
      continue;
    }
    // Not cached: consult the DFS (charges full traversal there).
    auto attr = co_await reader_dfs(from).getattr(*it, span);
    if (!attr) {
      if (leaf) continue;  // leaf may be about to be created
      co_return fs::fail(attr.error());
    }
    if (!fs::permits(attr->mode, attr->uid, attr->gid, config_.creds, want)) {
      co_return fs::fail(FsError::permission);
    }
  }
  co_return FsResult<void>{};
}

sim::Task<FsResult<void>> ConsistentRegion::check_parent(net::NodeId from,
                                                         const fs::Path& path,
                                                         obs::SpanId span) {
  const fs::Path parent = path.parent();
  if (!contains(parent)) co_return FsResult<void>{};  // workspace root's parent
  Member& node = member(from);
  if (const auto it = node.parent_checks.find(fs::SpellingKey{parent});
      it != node.parent_checks.end() && it->second.epoch == invalidation_epoch_) {
    // A check of this parent is already in flight from this node and began
    // after the last removal: its verdict answers this create too.
    const std::shared_ptr<sim::OneShot<FsError>> verdict = it->second.verdict;
    coalesced_.add();
    obs::Span wait(span != obs::kNoSpan ? sim_.tracer() : nullptr, "parent_check.wait", span,
                   from.value);
    const FsError error = co_await verdict->get();
    wait.finish(to_string(error));
    if (error == FsError::ok) co_return FsResult<void>{};
    if (error == FsError::io) co_return fs::fail(error);
    // A negative verdict may predate a mkdir of the parent that a peer has
    // already seen in the cache. Probe again: this cache get follows this
    // check's own start, so it sees every mkdir that finished before it.
    co_return co_await probe_parent(from, parent, span);
  }
  // Leader. A check that started before a removal bumped the epoch may hand
  // out a stale "exists": replace its entry, so only its own waiters see it.
  auto verdict = std::make_shared<sim::OneShot<FsError>>(sim_);
  node.parent_checks.insert_or_assign(parent.str(), ParentCheck{invalidation_epoch_, verdict});
  const auto settle = [&node, &parent, &verdict](FsError error) {
    // Erase the entry only while it is still ours: a newer leader may own it.
    if (const auto it = node.parent_checks.find(fs::SpellingKey{parent});
        it != node.parent_checks.end() && it->second.verdict == verdict) {
      node.parent_checks.erase(it);
    }
    verdict->set(error);
  };
  FsResult<void> result = fs::fail(FsError::io);
  try {
    result = co_await probe_parent(from, parent, span);
  } catch (...) {
    // Transport failure (e.g. the MDS is down): waiters see FsError::io, the
    // leader's caller sees the exception, as an uncoalesced check would.
    settle(FsError::io);
    throw;
  }
  settle(result ? FsError::ok : result.error());
  co_return result;
}

sim::Task<FsResult<void>> ConsistentRegion::probe_parent(net::NodeId from, fs::Path parent,
                                                         obs::SpanId span) {
  auto meta = co_await cache_get(from, parent, span);
  if (meta) {
    if (meta->removed) co_return fs::fail(FsError::not_found);
    if (!meta->attr.is_dir()) co_return fs::fail(FsError::not_a_directory);
    co_return FsResult<void>{};
  }
  if (!config_.parent_check) co_return FsResult<void>{};
  // Parent exists on the DFS but is not cached: synchronous check + load.
  auto attr = co_await member(from).dfs->getattr(parent, span);
  if (!attr) co_return fs::fail(attr.error());
  if (!attr->is_dir()) co_return fs::fail(FsError::not_a_directory);
  CachedMeta meta_new;
  meta_new.attr = *attr;
  (void)co_await cache_->add(from, parent.str(), encode_meta(meta_new), 0, parent.hash(), span);
  co_return FsResult<void>{};
}

// ---- Cache helpers ----------------------------------------------------------

sim::Task<std::optional<CachedMeta>> ConsistentRegion::cache_get(net::NodeId from,
                                                                 const fs::Path& path,
                                                                 obs::SpanId span) {
  const auto resp = co_await cache_->get(from, path.str(), path.hash(), span);
  if (resp.status != kv::KvStatus::ok) co_return std::nullopt;
  co_return decode_meta(resp.value);
}

// ---- Create / mkdir ----------------------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::create_common(net::NodeId from,
                                                          std::uint32_t client,
                                                          const fs::Path& path,
                                                          fs::FileMode mode,
                                                          fs::FileType type,
                                                          bool parent_known,
                                                          obs::SpanId parent) {
  auto perm = co_await check_permission(from, path.parent(), fs::Access::write, parent);
  if (!perm) co_return perm;
  if (!parent_known) {
    auto parent_ok = co_await check_parent(from, path, parent);
    if (!parent_ok) co_return parent_ok;
  }

  CachedMeta meta;
  meta.attr.ino = 0;  // assigned by the DFS at commit; unused inside the cache
  meta.attr.type = type;
  meta.attr.mode = mode;
  meta.attr.uid = config_.creds.uid;
  meta.attr.gid = config_.creds.gid;
  meta.attr.nlink = type == fs::FileType::directory ? 2 : 1;
  meta.attr.ctime = sim_.now();
  meta.attr.mtime = sim_.now();
  const auto resp =
      co_await cache_->add(from, path.str(), encode_meta(meta), 0, path.hash(), parent);
  if (resp.status == kv::KvStatus::exists) {
    // A marked-removed entry may be awaiting its remove commit; replacing it
    // would resurrect ordering problems, so surface EEXIST until then.
    co_return fs::fail(FsError::exists);
  }
  if (resp.status == kv::KvStatus::unreachable) {
    // Degraded pass-through: no live cache server for this key (retries and
    // ring failover exhausted). The entry is not cached, but the namespace
    // still advances via the synchronous DFS commit below; cached coverage
    // rebuilds lazily once the node returns.
    note_degraded(parent);
  } else if (resp.status != kv::KvStatus::ok) {
    co_return fs::fail(FsError::no_space);
  } else if (config_.async_commit) {
    OpMessage op;
    op.kind = type == fs::FileType::directory ? OpMessage::Kind::mkdir : OpMessage::Kind::create;
    op.path = path.str();
    op.mode = mode;
    co_await sim_.delay(kQueuePublishCpu);
    pipeline_.publish(client, std::move(op), parent);
    co_return FsResult<void>{};
  }
  // Degraded pass-through, or the sync-commit ablation: commit through this
  // node's DFS client.
  dfs::DfsClient& io = *member(from).dfs;
  auto committed = type == fs::FileType::directory ? co_await io.mkdir(path, mode, parent)
                                                   : co_await io.create(path, mode, parent);
  if (!committed) co_return fs::fail(committed.error());
  co_return FsResult<void>{};
}

sim::Task<FsResult<void>> ConsistentRegion::mkdir(net::NodeId from, std::uint32_t client,
                                                  const fs::Path& path, fs::FileMode mode,
                                                  bool parent_known, obs::SpanId parent) {
  return create_common(from, client, path, mode, fs::FileType::directory, parent_known, parent);
}

sim::Task<FsResult<void>> ConsistentRegion::create(net::NodeId from, std::uint32_t client,
                                                   const fs::Path& path, fs::FileMode mode,
                                                   bool parent_known, obs::SpanId parent) {
  return create_common(from, client, path, mode, fs::FileType::file, parent_known, parent);
}

// ---- getattr ------------------------------------------------------------------

sim::Task<FsResult<fs::InodeAttr>> ConsistentRegion::getattr(net::NodeId from,
                                                             const fs::Path& path,
                                                             obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::read, parent);
  if (!perm) co_return fs::fail(perm.error());
  auto meta = co_await cache_get(from, path, parent);
  if (meta) {
    if (meta->removed) co_return fs::fail(FsError::not_found);
    co_return meta->attr;
  }
  // Miss: synchronously load from the DFS (Table I: getattr on miss).
  auto attr = co_await reader_dfs(from).getattr(path, parent);
  if (!attr) co_return fs::fail(attr.error());
  CachedMeta loaded;
  loaded.attr = *attr;
  loaded.large_file = attr->size > config_.small_file_threshold;
  (void)co_await cache_->add(from, path.str(), encode_meta(loaded), 0, path.hash(), parent);
  co_return *attr;
}

// ---- remove (rm) ----------------------------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::remove(net::NodeId from, std::uint32_t client,
                                                   const fs::Path& path, obs::SpanId parent) {
  auto perm = co_await check_permission(from, path.parent(), fs::Access::write, parent);
  if (!perm) co_return perm;

  // CAS loop: mark the entry removed (Table I: rm = update & delete; the
  // cached copy is deleted by the commit process once the DFS applied it).
  for (;;) {
    const auto cur = co_await cache_->get(from, path.str(), path.hash(), parent);
    if (cur.status == kv::KvStatus::unreachable) {
      // Degraded pass-through: the key's cache shard is gone; unlink
      // synchronously on the DFS (nothing cached survives to go stale).
      note_degraded(parent);
      auto done = co_await member(from).dfs->unlink(path, parent);
      if (!done) co_return fs::fail(done.error());
      ++invalidation_epoch_;
      co_return FsResult<void>{};
    }
    if (cur.status == kv::KvStatus::not_found) {
      // Not cached: verify against the DFS before queueing the remove.
      auto attr = co_await member(from).dfs->getattr(path, parent);
      if (!attr) co_return fs::fail(attr.error());
      if (attr->is_dir()) co_return fs::fail(FsError::is_a_directory);
      CachedMeta marked;
      marked.attr = *attr;
      marked.removed = true;
      const auto added =
          co_await cache_->add(from, path.str(), encode_meta(marked), 0, path.hash(), parent);
      if (added.status != kv::KvStatus::ok) continue;  // raced (or shard lost); retry
      break;
    }
    auto meta = decode_meta(cur.value);
    if (!meta) co_return fs::fail(FsError::io);
    if (meta->removed) co_return fs::fail(FsError::not_found);
    if (meta->attr.is_dir()) co_return fs::fail(FsError::is_a_directory);
    meta->removed = true;
    const auto swapped = co_await cache_->cas(from, path.str(), encode_meta(*meta), cur.cas, 0,
                                              path.hash(), parent);
    if (swapped.status == kv::KvStatus::ok) break;
    // cas_mismatch or concurrent delete: retry the whole read-modify-write.
  }

  ++invalidation_epoch_;
  OpMessage op;
  op.kind = OpMessage::Kind::remove;
  op.path = path.str();
  if (config_.async_commit) {
    co_await sim_.delay(kQueuePublishCpu);
    pipeline_.publish(client, std::move(op), parent);
    co_return FsResult<void>{};
  }
  auto done = co_await member(from).dfs->unlink(path, parent);
  (void)co_await cache_->del(from, path.str(), path.hash(), parent);
  if (!done) co_return fs::fail(done.error());
  co_return FsResult<void>{};
}

// ---- Dependent operations: rmdir / readdir ------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::rmdir(net::NodeId from, std::uint32_t client,
                                                  const fs::Path& path, obs::SpanId parent) {
  (void)client;
  auto perm = co_await check_permission(from, path.parent(), fs::Access::write, parent);
  if (!perm) co_return perm;
  // Barrier, then a synchronous commit (Table I).
  co_return co_await pipeline_.after_barrier<void>(
      from, parent, [&]() -> sim::Task<FsResult<void>> {
        FsResult<void> result = co_await member(from).dfs->rmdir(path, parent);
        if (result) {
          ++invalidation_epoch_;
          drop_dfs_dentries();
          // Clean the cached subtree (paper: recursive removing cleans the cache).
          purge_cached_subtree(path);
        }
        co_return result;
      });
}

sim::Task<FsResult<std::vector<fs::DirEntry>>> ConsistentRegion::readdir(
    net::NodeId from, std::uint32_t client, const fs::Path& path, obs::SpanId parent) {
  (void)client;
  auto perm = co_await check_permission(from, path, fs::Access::read, parent);
  if (!perm) co_return fs::fail(perm.error());
  // Barrier, then delegate to the DFS: avoids a full cache-table scan and is
  // correct because all earlier operations have been committed (Table I).
  co_return co_await pipeline_.after_barrier<std::vector<fs::DirEntry>>(
      from, parent, [&] { return reader_dfs(from).readdir(path, parent); });
}

// ---- File data -------------------------------------------------------------------

sim::Task<FsResult<std::uint64_t>> ConsistentRegion::write(net::NodeId from,
                                                           std::uint32_t client,
                                                           const fs::Path& path,
                                                           std::uint64_t offset,
                                                           std::uint64_t length,
                                                           obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::write, parent);
  if (!perm) co_return fs::fail(perm.error());
  dfs::DfsClient& io = *member(from).dfs;

  for (;;) {
    const auto cur = co_await cache_->get(from, path.str(), path.hash(), parent);
    if (cur.status == kv::KvStatus::unreachable) {
      // Degraded pass-through: write through to the DFS directly; no cached
      // copy exists to keep coherent while the shard is down.
      note_degraded(parent);
      auto wrote = co_await io.write(path, offset, length, parent);
      if (!wrote) co_return fs::fail(wrote.error());
      co_return length;
    }
    if (cur.status == kv::KvStatus::not_found) {
      // Unknown in cache: fall back to the DFS (load like getattr would).
      auto attr = co_await getattr(from, path, parent);
      if (!attr) co_return fs::fail(attr.error());
      continue;
    }
    auto meta = decode_meta(cur.value);
    if (!meta) co_return fs::fail(FsError::io);
    if (meta->removed) co_return fs::fail(FsError::not_found);
    if (meta->attr.is_dir()) co_return fs::fail(FsError::is_a_directory);

    const std::uint64_t new_size = std::max(meta->attr.size, offset + length);
    if (meta->large_file || new_size > config_.small_file_threshold) {
      // Large-file path: data is not cached (Section III.D.2). Spill any
      // inline bytes, then write through to the DFS; resubmit until the
      // asynchronous create has landed there.
      const std::uint64_t spill = meta->inline_bytes;
      if (!meta->large_file) {
        meta->large_file = true;
        meta->inline_bytes = 0;
        meta->attr.size = new_size;
        meta->attr.mtime = sim_.now();
        const auto swapped = co_await cache_->cas(from, path.str(), encode_meta(*meta), cur.cas,
                                                  0, path.hash(), parent);
        if (swapped.status != kv::KvStatus::ok) continue;  // raced: retry
      }
      for (;;) {
        if (spill > 0) {
          auto spilled = co_await io.write(path, 0, spill, parent);
          if (!spilled && spilled.error() == FsError::not_found) {
            co_await sim_.delay(kCommitRetryDelay);
            continue;
          }
        }
        auto wrote = co_await io.write(path, offset, length, parent);
        if (wrote) break;
        if (wrote.error() != FsError::not_found) co_return fs::fail(wrote.error());
        co_await sim_.delay(kCommitRetryDelay);  // create not committed yet
      }
      // Reflect the new size for cached readers (best effort, CAS-raced).
      co_return length;
    }

    // Small-file path: metadata and data updated in one CAS.
    meta->inline_bytes = std::max(meta->inline_bytes, offset + length);
    meta->attr.size = new_size;
    meta->attr.mtime = sim_.now();
    const auto swapped = co_await cache_->cas(from, path.str(), encode_meta(*meta), cur.cas, 0,
                                              path.hash(), parent);
    if (swapped.status != kv::KvStatus::ok) continue;  // conflict: re-execute
    OpMessage op;
    op.kind = OpMessage::Kind::write_data;
    op.path = path.str();
    op.size = new_size;
    if (config_.async_commit) {
      co_await sim_.delay(kQueuePublishCpu);
      pipeline_.publish(client, std::move(op), parent);
    } else {
      auto wrote = co_await io.write(path, 0, new_size, parent);
      if (!wrote) co_return fs::fail(wrote.error());
    }
    co_return length;
  }
}

sim::Task<FsResult<std::uint64_t>> ConsistentRegion::read(net::NodeId from, const fs::Path& path,
                                                          std::uint64_t offset,
                                                          std::uint64_t length,
                                                          obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::read, parent);
  if (!perm) co_return fs::fail(perm.error());
  auto meta = co_await cache_get(from, path, parent);
  if (meta && !meta->removed && !meta->large_file) {
    // Single KV request served both metadata and data (Section III.D.2).
    if (offset >= meta->inline_bytes) co_return 0;
    co_return std::min(length, meta->inline_bytes - offset);
  }
  if (meta && meta->removed) co_return fs::fail(FsError::not_found);
  co_return co_await reader_dfs(from).read(path, offset, length, parent);
}

sim::Task<FsResult<void>> ConsistentRegion::fsync(net::NodeId from, const fs::Path& path,
                                                  obs::SpanId parent) {
  const auto cur = co_await cache_->get(from, path.str(), path.hash(), parent);
  Member& node = member(from);
  if (cur.status == kv::KvStatus::unreachable) {
    // Degraded pass-through: delegate durability to the DFS.
    note_degraded(parent);
    co_return co_await node.dfs->fsync(path, parent);
  }
  std::optional<CachedMeta> meta;
  if (cur.status == kv::KvStatus::ok) meta = decode_meta(cur.value);
  if (!meta || meta->removed) co_return fs::fail(FsError::not_found);
  if (pipeline_.has_pending(path.hash())) {
    // The file's create (or data) has not committed yet: durability comes
    // from a direct-I/O write of the inline payload into a node-local cache
    // file; it is written back once the create lands (Section III.D.2).
    co_await node.spill_disk->write(std::max<std::uint64_t>(meta->inline_bytes, 512));
    co_return FsResult<void>{};
  }
  co_return co_await node.dfs->fsync(path, parent);
}

// ---- drain / checkpoint / restore ---------------------------------------------

sim::Task<FsResult<std::uint64_t>> ConsistentRegion::checkpoint(std::uint32_t client) {
  co_await drain(client);
  const std::uint64_t id = next_checkpoint_id_++;
  dfs::DfsClient& io = *members_.front().dfs;
  const fs::Path dest = checkpoint_path(id);
  (void)co_await io.mkdir(fs::Path::parse("/.pacon"), fs::FileMode::dir_default());
  auto copied = co_await copy_subtree(io, config_.root, dest);
  if (!copied) co_return fs::fail(copied.error());
  last_checkpoint_id_ = id;
  co_return id;
}

sim::Task<FsResult<void>> ConsistentRegion::restore(std::uint64_t id) {
  dfs::DfsClient& io = *members_.front().dfs;
  const fs::Path src = checkpoint_path(id);
  auto exists = co_await io.getattr(src);
  if (!exists) co_return fs::fail(FsError::not_found);
  pipeline_.fence();
  // Roll the workspace subtree back to the checkpoint. The first removal
  // makes the cache, parent hints and in-flight parent checks stale, and a
  // later step may fail or throw: invalidate before starting, so no exit can
  // skip it, and again once the copy is done.
  invalidate_workspace_state();
  auto removed = co_await remove_subtree(io, config_.root);
  if (!removed) co_return fs::fail(removed.error());
  auto copied = co_await copy_subtree(io, src, config_.root);
  if (!copied) co_return copied;
  invalidate_workspace_state();
  co_return FsResult<void>{};
}

void ConsistentRegion::purge_cached_subtree(const fs::Path& dir) {
  const std::string prefix = subtree_prefix(dir);
  for (const auto node : config_.nodes) {
    auto& server = cache_->server_on(node);
    for (const auto& key : server.keys_with_prefix(prefix)) {
      server.apply(kv::KvRequest{kv::KvRequest::Op::del, key, {}, 0, 0});
    }
    server.apply(kv::KvRequest{kv::KvRequest::Op::del, dir.str(), {}, 0, 0});
  }
}

void ConsistentRegion::invalidate_workspace_state() {
  // Rebuild = drop the (possibly inconsistent) cached state; it reloads
  // lazily from the DFS.
  purge_cached_subtree(config_.root);
  drop_dfs_dentries();
  ++invalidation_epoch_;
}

void ConsistentRegion::detach_failed_node(net::NodeId failed) {
  Member* member = find_member(failed);
  if (member == nullptr || !member->commit->node_lost()) return;
  // Keys the dead cache server held are gone; take it out of the ring so
  // the remaining servers own the keyspace (entries rebuild from the DFS).
  cache_->remove_server(failed);
}

sim::Task<FsResult<void>> ConsistentRegion::recover_from_node_failure(net::NodeId failed) {
  detach_failed_node(failed);
  sim_.trace_note_lazy([&] {
    return "recover-node node=" + std::to_string(failed.value) +
           " ckpt=" + std::to_string(last_checkpoint_id_);
  });
  if (last_checkpoint_id_ == 0) co_return FsResult<void>{};  // nothing to roll back to
  co_return co_await restore(last_checkpoint_id_);
}

void ConsistentRegion::node_recovered(net::NodeId node) {
  cache_->server_recovered(node);
  // Conservative latch reset: a rejoined cache node ends the degraded
  // window (new ops route to live servers again).
  degraded_gauge_.set(0);
}

// ---- Eviction ----------------------------------------------------------------------

sim::Task<> ConsistentRegion::evictor_loop() {
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(config_.nodes.size()) * config_.cache.capacity_bytes;
  const auto high = static_cast<std::uint64_t>(config_.eviction_high_water *
                                               static_cast<double>(capacity));
  const auto low = static_cast<std::uint64_t>(config_.eviction_low_water *
                                              static_cast<double>(capacity));
  for (;;) {
    co_await sim_.delay(config_.eviction_period);
    if (stop_evictor_) break;
    if (cache_->total_bytes_used() <= high) continue;

    // Enumerate current children of the region root across all servers.
    const std::string prefix = subtree_prefix(config_.root);
    std::set<std::string> children;
    for (const auto node : config_.nodes) {
      for (const auto& key : cache_->server_on(node).keys_with_prefix(prefix)) {
        std::string rest = key.substr(prefix.size());
        const auto slash = rest.find('/');
        if (slash != std::string::npos) rest.resize(slash);
        if (!rest.empty()) children.insert(std::move(rest));
      }
    }
    if (children.empty()) continue;

    // Victim order: round-robin resumes after the previous victim; the
    // naive fixed order always restarts from the first child (and thrashes
    // hot leading subtrees -- the ablation's point).
    auto cursor = config_.eviction_policy == EvictionPolicy::round_robin
                      ? children.upper_bound(eviction_cursor_)
                      : children.begin();
    std::size_t examined = 0;
    while (cache_->total_bytes_used() > low && examined < children.size()) {
      if (cursor == children.end()) cursor = children.begin();
      eviction_cursor_ = *cursor;
      const std::string victim_prefix = prefix + *cursor;
      (void)co_await evict_subtree(victim_prefix);
      ++cursor;
      ++examined;
    }
  }
}

sim::Task<std::uint64_t> ConsistentRegion::evict_subtree(const std::string& victim) {
  std::uint64_t evicted = 0;
  const std::string sub = victim + "/";
  for (const auto node : config_.nodes) {
    if (!fabric_.node_up(node)) continue;
    auto& server = cache_->server_on(node);
    for (const auto& key : server.keys_with_prefix(sub)) {
      if (pipeline_.has_pending(sim::Rng::hash(key))) continue;  // only committed entries
      server.apply(kv::KvRequest{kv::KvRequest::Op::del, key, {}, 0, 0});
      ++evicted;
    }
    if (!pipeline_.has_pending(sim::Rng::hash(victim))) {
      const auto r = server.apply(kv::KvRequest{kv::KvRequest::Op::del, victim, {}, 0, 0});
      if (r.status == kv::KvStatus::ok) ++evicted;
    }
  }
  evicted_.add(evicted);
  // Eviction is a background management sweep; charge a nominal CPU cost.
  co_await sim_.delay(1_us + evicted * 200);
  co_return evicted;
}

// ---- Subtree copy / removal on the DFS ------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::copy_subtree(dfs::DfsClient& io,
                                                         const fs::Path& from,
                                                         const fs::Path& to) {
  auto src = co_await io.getattr(from);
  if (!src) co_return fs::fail(src.error());
  auto made = co_await io.mkdir(to, src->mode);
  if (!made && made.error() != FsError::exists) co_return fs::fail(made.error());
  auto entries = co_await io.readdir(from);
  if (!entries) co_return fs::fail(entries.error());
  for (const auto& entry : *entries) {
    const fs::Path src_child = from.child(entry.name);
    const fs::Path dst_child = to.child(entry.name);
    if (entry.type == fs::FileType::directory) {
      auto sub = co_await copy_subtree(io, src_child, dst_child);
      if (!sub) co_return sub;
      continue;
    }
    auto attr = co_await io.getattr(src_child);
    if (!attr) co_return fs::fail(attr.error());
    auto created = co_await io.create(dst_child, attr->mode);
    if (!created && created.error() != FsError::exists) co_return fs::fail(created.error());
    if (attr->size > 0) {
      auto data = co_await io.read(src_child, 0, attr->size);
      if (!data) co_return fs::fail(data.error());
      auto written = co_await io.write(dst_child, 0, attr->size);
      if (!written) co_return fs::fail(written.error());
    }
  }
  co_return FsResult<void>{};
}

sim::Task<FsResult<void>> ConsistentRegion::remove_subtree(dfs::DfsClient& io,
                                                           const fs::Path& target) {
  auto entries = co_await io.readdir(target);
  if (!entries) co_return fs::fail(entries.error());
  for (const auto& entry : *entries) {
    const fs::Path child = target.child(entry.name);
    if (entry.type == fs::FileType::directory) {
      // A commit still in flight (restore mid-commit) may land in the
      // directory after it was emptied: empty it again until the rmdir holds.
      for (;;) {
        auto sub = co_await remove_subtree(io, child);
        if (!sub) co_return sub;
        auto rm = co_await io.rmdir(child);
        if (rm || rm.error() == FsError::not_found) break;
        if (rm.error() != FsError::not_empty) co_return fs::fail(rm.error());
      }
      continue;
    }
    auto rm = co_await io.unlink(child);
    if (!rm && rm.error() != FsError::not_found) co_return fs::fail(rm.error());
  }
  co_return FsResult<void>{};
}

}  // namespace pacon::core
