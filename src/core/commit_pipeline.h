// Asynchronous commit pipeline of a consistent region (paper Section III.E):
// every member node runs a commit process that drains the node's commit
// queue (pub/sub) into the DFS -- the asynchronously-updated backup copy --
// using independent commit with resubmission for non-dependent operations
// and barrier-epoch commit for dependent ones.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/commit_wal.h"
#include "core/epoch.h"
#include "core/op_message.h"
#include "dfs/client.h"
#include "fs/error.h"
#include "kv/memcache.h"
#include "net/pubsub.h"
#include "net/retry.h"
#include "sim/disk.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/sync.h"

namespace pacon::core {

using namespace sim::literals;

/// Backoff between resubmissions of an op whose precondition has not landed
/// on the DFS yet (independent commit retries, a large-file write waiting
/// for its create): the first step of the commit retry schedule.
inline constexpr sim::SimDuration kCommitRetryDelay = 200_us;

class CommitPipeline {
 public:
  /// One member node's commit process: a sorter that consumes the node's
  /// queue and logs every op to the WAL, a committer that applies them in
  /// order, and a retry worker that resubmits rejected ones, so one rejected
  /// operation never head-of-line blocks the queue.
  class Process {
   public:
    Process(CommitPipeline& pipeline, net::NodeId node, dfs::DfsClient& dfs);
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    // Semantics: ConsistentRegion::detach_failed_node (node_lost, false when
    // the node was lost already), crash_commit_process, restart_commit_process.
    bool node_lost();
    void crash();
    void restart();
    bool running() const { return running_; }

   private:
    friend class CommitPipeline;

    sim::Task<> sorter_loop();
    sim::Task<> committer_loop();
    sim::Task<> retry_loop();
    /// One commit attempt incl. bookkeeping. Returns the message back when it
    /// needs resubmission, nullopt once it is settled. `generation` is the
    /// incarnation the caller belongs to: a crash mid-apply means the result
    /// is neither acked nor accounted (the op redelivers -- the at-least-once
    /// window). `span_override` re-parents the "dfs.apply" child span (WAL
    /// redelivery hangs the replayed apply under its "wal.replay" span
    /// instead of directly under the commit span).
    sim::Task<std::optional<OpMessage>> apply_and_account(OpMessage msg, std::uint64_t generation,
                                                          obs::SpanId span_override = obs::kNoSpan);
    sim::Task<fs::FsError> apply_once(OpMessage::Kind kind, fs::Path path, fs::FileMode mode,
                                      std::uint64_t size, obs::SpanId span);
    /// Acknowledges `msg`, accounts it out of the pending table and closes
    /// its commit span with `fate` ("committed", or "discarded" for an op of
    /// a dead node or one published before the latest restore).
    void settle(const OpMessage& msg, const char* fate);
    void park(OpMessage msg);
    void abort_barrier();

    CommitPipeline& pipeline_;
    sim::Simulation& sim_;
    net::NodeId node_;
    /// Commit-queue topic name and its pre-resolved bus handle: both are
    /// fixed for the region's lifetime, so publish paths never rebuild the
    /// topic string or re-walk the bus's topic map.
    std::string topic_;
    net::PubSubBus<OpMessage>::TopicHandle topic_handle_;
    std::shared_ptr<net::PubSubBus<OpMessage>::Subscription> queue_;
    dfs::DfsClient& dfs_;
    /// Sorted operation stream between the sorter and committer halves
    /// (barrier sentinels included).
    std::unique_ptr<sim::Channel<OpMessage>> ordered_;
    /// Failed commits awaiting resubmission by the retry worker.
    std::unique_ptr<sim::Channel<OpMessage>> retry_queue_;
    std::uint64_t retrying_ = 0;
    /// Commit WAL and its dedicated device (modelled apart from the node's
    /// spill disk so log flushes never queue behind spill I/O).
    sim::SimDisk wal_disk_;
    CommitWal wal_;
    std::uint32_t client_count_ = 0;
    std::unordered_map<std::uint64_t, std::size_t> barrier_seen_;  // epoch -> count
    bool alive_ = true;
    /// Incarnation. Bumped on crash; the committer and retry loops capture
    /// it at spawn and exit as soon as it moves on, so a loop woken from a
    /// pre-crash channel never applies post-crash work.
    std::uint64_t generation_ = 0;
    bool running_ = true;
    /// Channels closed by a crash are parked here, not destructed: loops may
    /// still be suspended in their wait queues until the close wakes them.
    std::vector<std::unique_ptr<sim::Channel<OpMessage>>> dead_channels_;
  };

  /// `cache` is the region's cache: a committed remove deletes its marked
  /// entry there. Metrics land under `scope` ("region.<root>").
  CommitPipeline(sim::Simulation& sim, net::Fabric& fabric, kv::MemCacheCluster& cache,
                 const fs::Path& root, sim::MetricScope scope, std::size_t node_count);
  ~CommitPipeline();
  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Starts `node`'s commit process (sorter, committer, retry worker, WAL
  /// flusher, spawned in that order), committing through `dfs`.
  Process& add_node(net::NodeId node, dfs::DfsClient& dfs);

  /// Registers a publisher whose queue is `home`'s; returns its region-wide
  /// client id (used for barrier accounting).
  std::uint32_t register_client(Process& home);

  /// Publishes `msg` on `client`'s node queue. A traced caller (`parent`)
  /// gets a "commit" span opened here and carried inside the message; it
  /// stays open across the pub/sub hop (and any WAL redelivery) until the
  /// committer closes it with the op's fate.
  void publish(std::uint32_t client, OpMessage msg, obs::SpanId parent = obs::kNoSpan);

  bool has_pending(std::uint64_t path_hash) const { return pending_by_hash_.contains(path_hash); }
  std::uint64_t pending_commits() const { return pending_total_; }
  std::size_t pending_paths() const { return pending_by_hash_.size(); }

  sim::Task<> drain();

  /// Runs `dependent` -- the DFS half of an rmdir or readdir, a callable
  /// returning sim::Task<fs::FsResult<T>> -- once every operation published
  /// before the call has committed (Section III.E.2), inside the barrier's
  /// epoch. A barrier aborted by a commit-process crash, or a dependent op
  /// failing in transport (MDS down, message lost), closes the epoch and
  /// replays the whole barrier after kBarrierRetryDelay, up to
  /// kBarrierRetryLimit times before failing with FsError::io.
  template <typename T, typename Dependent>
  sim::Task<fs::FsResult<T>> after_barrier(net::NodeId from, obs::SpanId parent,
                                           Dependent dependent) {
    for (std::size_t attempt = 0;; ++attempt) {
      const std::uint64_t epoch = co_await run_barrier(from, parent);
      std::optional<fs::FsResult<T>> result;
      if (!epochs_.is_aborted(epoch)) {
        try {
          result = co_await dependent();
        } catch (const net::RpcError&) {
          // Transient: the epoch/mutex bookkeeping below stays intact.
        }
      }
      // An aborted epoch is closed too: its surviving ops redeliver from the
      // WAL after restart, and the replayed barrier covers them.
      epochs_.complete_epoch(epoch);
      barrier_mutex_.unlock();
      if (result) co_return std::move(*result);
      if (attempt + 1 >= kBarrierRetryLimit) co_return fs::fail(fs::FsError::io);
      co_await sim_.delay(kBarrierRetryDelay);
    }
  }

  /// Discards every op published so far instead of committing it: a restore
  /// rolled their window back, and committing one would resurrect it on the
  /// DFS only, or retry for ever once its parent directory is gone.
  void fence() { restore_fence_ = next_op_id_; }

  // ---- Stats (registry counters under "region.<root>") --------------------

  std::uint64_t committed_ops() const { return committed_.value(); }
  std::uint64_t commit_retries() const { return retries_.value(); }
  std::uint64_t barriers_run() const { return barriers_.value(); }
  std::uint64_t commit_crashes() const { return crashes_.value(); }
  std::uint64_t barrier_aborts() const { return aborts_.value(); }
  std::uint64_t redelivered_ops() const { return redelivered_.value(); }

 private:
  /// Pause before replaying a barrier (aborted epoch or transient failure
  /// of the dependent op), and how many replays to attempt.
  static constexpr sim::SimDuration kBarrierRetryDelay = 500_us;
  static constexpr std::size_t kBarrierRetryLimit = 64;
  /// Group-commit cadence of the per-node commit WAL.
  static constexpr sim::SimDuration kWalFlushPeriod = 100_us;
  /// Resubmission schedule of the retry worker: exponential with
  /// deterministic jitter from the pipeline's forked rng stream;
  /// max_attempts is ignored (independent commit resubmits until the DFS
  /// accepts, Section III.E.1).
  static constexpr net::RetryPolicy kCommitRetry{.max_attempts = 0,
                                                 .base_delay = kCommitRetryDelay,
                                                 .multiplier = 2.0,
                                                 .max_delay = 2'000_us,
                                                 .jitter_frac = 0.25};

  /// Runs one barrier: all clients emit barrier messages; waits until every
  /// commit process drained the epoch or the epoch aborts (a commit-process
  /// crash mid-epoch). Returns the epoch with barrier_mutex_ held: the caller
  /// completes it, after running its dependent op only if it drained.
  sim::Task<std::uint64_t> run_barrier(net::NodeId from, obs::SpanId parent);

  /// Pending-commit bookkeeping keyed by path hash. Increment stamps the
  /// hash into the message; decrement and the has_pending probes reuse it,
  /// so the commit side never rehashes the path.
  void pending_increment(OpMessage& msg);
  void pending_decrement(const OpMessage& msg);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  kv::MemCacheCluster& cache_;
  const fs::Path root_;
  sim::MetricScope scope_;
  net::PubSubBus<OpMessage> bus_;
  std::vector<std::unique_ptr<Process>> processes_;
  // Client ids are dense, so the per-client tables are plain vectors indexed
  // by id: no hashing on the publish path, and the barrier broadcast
  // iterates in deterministic id order for free.
  std::vector<Process*> clients_;              // client id -> home process
  std::vector<std::uint64_t> client_epochs_;   // client id -> current epoch

  EpochCoordinator epochs_;
  sim::Mutex barrier_mutex_;
  /// Epoch of the barrier currently between broadcast and drained (guarded
  /// by barrier_mutex_); crash paths abort it so the waiter can replay.
  std::optional<std::uint64_t> barrier_inflight_epoch_;
  /// Jitter stream for commit-retry backoff.
  sim::Rng rng_;

  // Paths with queued-but-uncommitted ops are protected from eviction; the
  // drain() primitive waits on the total. Keyed by the path's 64-bit hash
  // (stamped into the message at publish, reused on the commit side) and
  // erased at zero, so the table stays bounded by in-flight ops and
  // cache-hot regardless of namespace size -- a create storm over millions
  // of distinct paths never grows it. A hash collision between two
  // concurrently-pending paths (~2^-64 per pair) only over-protects an entry
  // from eviction; totals stay exact.
  std::unordered_map<std::uint64_t, std::uint32_t> pending_by_hash_;
  std::uint64_t pending_total_ = 0;
  sim::Gate drained_gate_;

  std::uint64_t next_op_id_ = 0;
  /// Ops with an id up to this one were published before the latest restore
  /// and are discarded uncommitted.
  std::uint64_t restore_fence_ = 0;

  // Metric handles, resolved once at construction: registry lookups are
  // string-keyed map walks, too slow for the per-op paths that update these.
  sim::Gauge& queue_depth_;    // commit_queue_depth: queued-not-committed ops
  sim::Counter& committed_;    // committed_ops
  sim::Counter& retries_;      // commit_retries
  sim::Counter& redelivered_;  // redelivered_ops: replayed from a WAL after a restart
  /// duplicate_deliveries: redelivered ops that were already acknowledged
  /// (idempotency-id dedup hits), so applied once overall.
  sim::Counter& duplicates_;
  sim::Counter& barriers_;     // barriers_run
  sim::Counter& crashes_;      // commit_crashes
  sim::Counter& aborts_;       // barrier_aborts
};

}  // namespace pacon::core
