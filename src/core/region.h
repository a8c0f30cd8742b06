// Consistent region: one application workspace under partial consistency
// (paper Section III).
//
// A region owns:
//   * the distributed in-memory metadata cache (Memcached-like servers on
//     the application's own nodes, keyed by full path over a DHT) -- the
//     strongly-consistent primary copy;
//   * the commit pipeline (core/commit_pipeline.h): per-node commit queues
//     and commit processes that apply operations to the underlying DFS --
//     the asynchronously-updated backup copy;
//   * the batch permission table;
//   * round-robin eviction of committed subtrees under cache pressure;
//   * subtree checkpoint / rollback for client-node failure recovery.
//
// Clients (Pacon instances) register with the region and funnel operations
// on paths inside the workspace through it.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/commit_pipeline.h"
#include "core/meta_entry.h"
#include "core/permission.h"
#include "dfs/client.h"
#include "dfs/cluster.h"
#include "fs/error.h"
#include "fs/path.h"
#include "kv/memcache.h"
#include "obs/span_id.h"
#include "sim/disk.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pacon::core {

using namespace sim::literals;

/// Victim selection for cache-space eviction (Section III.F: round-robin
/// "can alleviate cache thrashing that may be caused by the simple eviction
/// policy"; fixed_order is that simple policy, kept for the ablation).
enum class EvictionPolicy : std::uint8_t { round_robin, fixed_order };

struct RegionConfig {
  /// Workspace root (the consistent region's subtree).
  fs::Path root;
  /// Nodes the application runs on; cache servers and commit processes are
  /// launched on each (paper: Pacon services start with the application).
  std::vector<net::NodeId> nodes;
  /// The application's system user.
  fs::Credentials creds{};
  /// Small-file threshold: files up to this size (metadata + data) live
  /// inline in the cache (4 KB in the paper's prototype).
  std::uint64_t small_file_threshold = 4096;
  /// Check parent existence on create (applications that guarantee their own
  /// creation order can turn this off; Section III.C).
  bool parent_check = true;
  /// Batch permission management; off = hierarchical ancestor checks through
  /// the cache (ablation of Section III.C).
  bool batch_permission = true;
  /// Asynchronous commit; off = every mutation applied to the DFS inline
  /// (ablation of Benefit 3).
  bool async_commit = true;
  /// Per-node cache-server tuning. lru_eviction is forced off: the region's
  /// own evictor manages space (Section III.F).
  kv::KvConfig cache{};
  /// Evict when used bytes exceed this fraction of total cache capacity...
  double eviction_high_water = 0.90;
  /// ...down to this fraction.
  double eviction_low_water = 0.75;
  /// How often the evictor checks pressure.
  sim::SimDuration eviction_period = 50_ms;
  EvictionPolicy eviction_policy = EvictionPolicy::round_robin;
  /// Normal permission of the workspace; defaults to creator-private rwx.
  PermissionSpec normal_permission{};
};

class ConsistentRegion {
 public:
  ConsistentRegion(sim::Simulation& sim, net::Fabric& fabric, dfs::DfsCluster& dfs,
                   RegionConfig config);
  ~ConsistentRegion();
  ConsistentRegion(const ConsistentRegion&) = delete;
  ConsistentRegion& operator=(const ConsistentRegion&) = delete;

  const RegionConfig& config() const { return config_; }
  const fs::Path& root() const { return config_.root; }
  PermissionTable& permissions() { return permissions_; }
  kv::MemCacheCluster& cache() { return *cache_; }

  /// True when `path` lies inside this region's workspace.
  bool contains(const fs::Path& path) const { return config_.root.is_prefix_of(path); }

  /// Registers a client process running on `node`; returns its region-wide
  /// client id (used for barrier accounting).
  std::uint32_t register_client(net::NodeId node) {
    return pipeline_.register_client(*member(node).commit);
  }

  // ---- Metadata operations (invoked by Pacon clients) -------------------
  //
  // The trailing `parent` on every op is the caller's tracing context
  // (obs/trace.h): traced ops hang their cache lookups, commit-queue spans
  // and DFS round trips under it; untraced callers pay nothing.

  /// `parent_known` skips the parent-existence probe (the caller recently
  /// confirmed the parent; see Pacon's hint cache and Section III.C).
  sim::Task<fs::FsResult<void>> mkdir(net::NodeId from, std::uint32_t client,
                                      const fs::Path& path, fs::FileMode mode,
                                      bool parent_known = false,
                                      obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> create(net::NodeId from, std::uint32_t client,
                                       const fs::Path& path, fs::FileMode mode,
                                       bool parent_known = false,
                                       obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(net::NodeId from, const fs::Path& path,
                                                 obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> remove(net::NodeId from, std::uint32_t client,
                                       const fs::Path& path,
                                       obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> rmdir(net::NodeId from, std::uint32_t client,
                                      const fs::Path& path,
                                      obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(net::NodeId from,
                                                             std::uint32_t client,
                                                             const fs::Path& path,
                                                             obs::SpanId parent = obs::kNoSpan);

  // ---- File data operations ---------------------------------------------

  sim::Task<fs::FsResult<std::uint64_t>> write(net::NodeId from, std::uint32_t client,
                                               const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length,
                                               obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<std::uint64_t>> read(net::NodeId from, const fs::Path& path,
                                              std::uint64_t offset, std::uint64_t length,
                                              obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> fsync(net::NodeId from, const fs::Path& path,
                                      obs::SpanId parent = obs::kNoSpan);

  // ---- Region management --------------------------------------------------

  /// Waits until every operation published so far is applied to the DFS.
  sim::Task<> drain(std::uint32_t /*client*/) { return pipeline_.drain(); }

  /// Copies the workspace subtree on the DFS into a checkpoint; returns its
  /// id (paper Section III.G). Implies a drain.
  sim::Task<fs::FsResult<std::uint64_t>> checkpoint(std::uint32_t client);

  /// Rolls the workspace back to checkpoint `id` and clears the cache
  /// (client-node failure recovery). Ops published before the call and not
  /// yet committed are rolled back with it: they are discarded, not applied.
  sim::Task<fs::FsResult<void>> restore(std::uint64_t id);

  /// Drops node `failed` from the region (cache ring) after a crash. Entries
  /// it held are lost; uncommitted operations from its queue are lost too --
  /// exactly the damage restore() repairs.
  void detach_failed_node(net::NodeId failed);

  /// §III failure recovery in one call: detaches `failed` and rolls the
  /// workspace back to the newest checkpoint. With no checkpoint taken yet
  /// the detach still happens and the call succeeds (nothing to roll back).
  sim::Task<fs::FsResult<void>> recover_from_node_failure(net::NodeId failed);

  /// A transiently-down cache node rejoined (it was never detached): clears
  /// its suspect flag so its keyspace routes home, cold-flushing the server.
  void node_recovered(net::NodeId node);

  // ---- Commit-process fault injection -------------------------------------

  /// Kills node `node`'s commit process (committer + retry worker). Ops it
  /// held die with it; the sorter and WAL survive (client-side queue
  /// infrastructure), so everything unacknowledged replays on restart. An
  /// in-flight barrier this node participates in is aborted.
  void crash_commit_process(net::NodeId node) { member(node).commit->crash(); }

  /// Restarts a crashed commit process. It first redelivers the WAL backlog
  /// (at-least-once; already-acked ops are skipped), then resumes draining
  /// the queue.
  void restart_commit_process(net::NodeId node) { member(node).commit->restart(); }

  /// True while `node`'s commit process is running.
  bool commit_process_running(net::NodeId node) { return member(node).commit->running(); }

  // ---- Introspection -------------------------------------------------------

  // Each counter below reads its registry counter under "region.<root>".
  std::uint64_t pending_commits() const { return pipeline_.pending_commits(); }
  std::uint64_t committed_ops() const { return pipeline_.committed_ops(); }
  std::uint64_t commit_retries() const { return pipeline_.commit_retries(); }
  std::uint64_t evicted_entries() const { return evicted_.value(); }
  std::uint64_t barriers_run() const { return pipeline_.barriers_run(); }
  std::uint64_t commit_crashes() const { return pipeline_.commit_crashes(); }
  std::uint64_t barrier_aborts() const { return pipeline_.barrier_aborts(); }
  /// Ops replayed from a WAL after a commit-process restart.
  std::uint64_t redelivered_ops() const { return pipeline_.redelivered_ops(); }
  /// Ops that fell back to synchronous DFS commit because the cache was
  /// unreachable (degraded pass-through mode).
  std::uint64_t degraded_ops() const { return degraded_.value(); }

  /// Bumped whenever anything is removed from the region (remove, rmdir, a
  /// checkpoint restore); clients gate their local parent-existence hints on
  /// it, and an in-flight parent check is joined only under its own epoch.
  std::uint64_t invalidation_epoch() const { return invalidation_epoch_; }

  /// True while `path` has at least one queued-but-uncommitted operation.
  bool has_pending(const std::string& path) const {
    return pipeline_.has_pending(sim::Rng::hash(path));
  }

  /// Distinct path hashes with queued-but-uncommitted operations
  /// (diagnostics / tests; bounded by in-flight ops, not namespace size).
  std::size_t pending_paths() const { return pipeline_.pending_paths(); }

  /// Parent checks currently in flight across all nodes (diagnostics / tests;
  /// each leader erases its entry when it settles).
  std::size_t parent_checks_in_flight() const {
    std::size_t n = 0;
    for (const Member& member : members_) n += member.parent_checks.size();
    return n;
  }

 private:
  /// One in-flight parent check: the invalidation epoch it started under and
  /// the verdict its waiters park on (FsError::ok when the parent exists).
  /// Waiters hold the verdict by shared_ptr, so it outlives the table entry.
  struct ParentCheck {
    std::uint64_t epoch = 0;
    std::shared_ptr<sim::OneShot<fs::FsError>> verdict;
  };

  struct Member {
    net::NodeId node;
    /// The node's DFS client: its commit process commits through it, and its
    /// clients' synchronous DFS calls go through it too.
    std::unique_ptr<dfs::DfsClient> dfs;
    /// Node-local device for direct-I/O spill files (fsync of files whose
    /// create has not committed; Section III.D.2).
    std::unique_ptr<sim::SimDisk> spill_disk;
    /// The node's commit process (owned by pipeline_).
    CommitPipeline::Process* commit = nullptr;
    /// Parent-existence checks in flight from this node's clients, keyed by
    /// the parent's exact path (a hash collision would hand one directory's
    /// verdict to another). A later check of the same parent waits for the
    /// leader's verdict instead of repeating its cache get and DFS getattr.
    std::unordered_map<std::string, ParentCheck, fs::SpellingHash, fs::SpellingEq>
        parent_checks;
  };

  /// Permission check dispatch: batch (local) or hierarchical (ablation).
  sim::Task<fs::FsResult<void>> check_permission(net::NodeId from, const fs::Path& path,
                                                 fs::Access access,
                                                 obs::SpanId span = obs::kNoSpan);
  /// Parent-existence check for a create of `path`, coalesced per node: the
  /// first check of a parent (the leader) runs probe_parent, and checks of
  /// the same parent that arrive while it is in flight under the same
  /// invalidation epoch wait for its verdict. A waiter handed a negative
  /// verdict other than io runs its own probe_parent.
  sim::Task<fs::FsResult<void>> check_parent(net::NodeId from, const fs::Path& path,
                                             obs::SpanId span = obs::kNoSpan);
  /// The uncoalesced check: cache get of `parent`, then on a miss a DFS
  /// getattr that loads the parent into the cache.
  sim::Task<fs::FsResult<void>> probe_parent(net::NodeId from, fs::Path parent,
                                             obs::SpanId span);

  /// Inserts a new entry and publishes its commit message.
  sim::Task<fs::FsResult<void>> create_common(net::NodeId from, std::uint32_t client,
                                              const fs::Path& path, fs::FileMode mode,
                                              fs::FileType type, bool parent_known,
                                              obs::SpanId parent);

  /// Cache entry fetch decoding the removed-marker; the path's cached hash
  /// rides along so the cluster router and server skip rehashing the key.
  sim::Task<std::optional<CachedMeta>> cache_get(net::NodeId from, const fs::Path& path,
                                                 obs::SpanId span = obs::kNoSpan);

  /// Degraded pass-through bookkeeping: counter + latch gauge + a tagged
  /// event on the traced caller's span.
  void note_degraded(obs::SpanId span);

  /// The member running on `node`, or nullptr for a non-member.
  Member* find_member(net::NodeId node);
  Member& member(net::NodeId node) {
    Member* found = find_member(node);
    assert(found != nullptr && "operation issued from a non-member node");
    return *found;
  }
  /// DFS client for a read issued from `node`: the member node's own, or --
  /// for a reader that merged this region from another workspace -- one
  /// made on that node's first read here.
  dfs::DfsClient& reader_dfs(net::NodeId node);
  fs::Path checkpoint_path(std::uint64_t id) const;

  sim::Task<> evictor_loop();
  sim::Task<std::uint64_t> evict_subtree(const std::string& prefix);

  /// Recursive DFS subtree copy (checkpoint) and removal (restore).
  sim::Task<fs::FsResult<void>> copy_subtree(dfs::DfsClient& io, const fs::Path& from,
                                             const fs::Path& to);
  sim::Task<fs::FsResult<void>> remove_subtree(dfs::DfsClient& io, const fs::Path& target);
  /// Deletes `dir` and every cached entry under it on every member's cache
  /// server, down or not: an entry left on a down server would be served
  /// again once the node rejoins.
  void purge_cached_subtree(const fs::Path& dir);
  /// Drops the workspace's cached entries and the region's DFS dentries, and
  /// bumps invalidation_epoch_ (restore: the DFS subtree is being replaced).
  void invalidate_workspace_state();
  /// A DFS client for `node` that trusts its directory dentries (see
  /// dfs::DfsClientConfig::trust_dir_dentries); the region owns all of them.
  std::unique_ptr<dfs::DfsClient> make_dfs_client(net::NodeId node);
  /// Drops every dentry of every DFS client the region owns: run wherever a
  /// workspace directory is removed or replaced on the DFS.
  void drop_dfs_dentries();

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  dfs::DfsCluster& dfs_;
  RegionConfig config_;
  PermissionTable permissions_;
  /// "region.<root>" with '/' flattened to '_' (see DESIGN.md section 11).
  sim::MetricScope metrics_;

  std::unique_ptr<kv::MemCacheCluster> cache_;
  /// One per config_.nodes entry, in that order (reserved up front, so the
  /// elements never move).
  std::vector<Member> members_;
  /// DFS clients of non-member readers (merged regions), by node id.
  std::unordered_map<std::uint32_t, std::unique_ptr<dfs::DfsClient>> reader_dfs_clients_;
  /// Declared after everything its commit processes use, so it shuts them
  /// down first.
  CommitPipeline pipeline_;

  // Round-robin eviction cursor (name of the last evicted root child).
  std::string eviction_cursor_;
  bool stop_evictor_ = false;

  std::uint64_t next_checkpoint_id_ = 1;
  std::uint64_t last_checkpoint_id_ = 0;
  std::uint64_t invalidation_epoch_ = 0;

  // Metric handles, resolved once at construction: registry lookups are
  // string-keyed map walks, too slow for the per-op paths that update these.
  sim::Gauge& degraded_gauge_;   // degraded_latch: 1 after any pass-through op
  sim::Counter& degraded_;       // degraded_ops
  sim::Counter& evicted_;        // evicted_entries
  sim::Counter& coalesced_;      // parent_checks_coalesced: checks that waited on a leader
};

}  // namespace pacon::core
