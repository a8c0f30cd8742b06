#include "core/commit_pipeline.h"

#include <cassert>

#include "core/meta_entry.h"
#include "obs/trace.h"

namespace pacon::core {

using fs::FsError;

CommitPipeline::CommitPipeline(sim::Simulation& sim, net::Fabric& fabric,
                               kv::MemCacheCluster& cache, const fs::Path& root,
                               sim::MetricScope scope, std::size_t node_count)
    : sim_(sim),
      fabric_(fabric),
      cache_(cache),
      root_(root),
      scope_(std::move(scope)),
      bus_(sim, fabric),
      epochs_(sim, node_count, &scope_.gauge("epoch")),
      barrier_mutex_(sim),
      rng_(sim.rng().fork("region-retry")),
      drained_gate_(sim),
      queue_depth_(scope_.gauge("commit_queue_depth")),
      committed_(scope_.counter("committed_ops")),
      retries_(scope_.counter("commit_retries")),
      redelivered_(scope_.counter("redelivered_ops")),
      duplicates_(scope_.counter("duplicate_deliveries")),
      barriers_(scope_.counter("barriers_run")),
      crashes_(scope_.counter("commit_crashes")),
      aborts_(scope_.counter("barrier_aborts")) {
  // The commit queue models the prototype's ZeroMQ-over-TCP transport:
  // retransmitted and deduped, so queue messages are only lost with their
  // endpoint. Wire-level fault injection bites the RPC planes (cache, DFS);
  // a silently dropped barrier sentinel would wedge the epoch protocol in a
  // way no real TCP queue does.
  bus_.set_reliable_transport(true);
  pending_by_hash_.reserve(4096);
}

CommitPipeline::~CommitPipeline() {
  // Unsubscribing and closing each stage's channel dequeues the blocked
  // sorter/committer/retry loops, so no loop is left parked in the wait
  // queue of a destructed channel. If the simulation keeps running, the
  // woken loops observe end-of-stream and exit; at teardown the kernel
  // reclaims them either way.
  for (auto& process : processes_) {
    bus_.unsubscribe(process->topic_, process->queue_);
    process->ordered_->close();
    process->retry_queue_->close();
    process->wal_.stop();
  }
}

CommitPipeline::Process::Process(CommitPipeline& pipeline, net::NodeId node, dfs::DfsClient& dfs)
    : pipeline_(pipeline),
      sim_(pipeline.sim_),
      node_(node),
      topic_(pipeline.root_.str() + "#" + std::to_string(node.value)),
      topic_handle_(pipeline.bus_.topic_handle(topic_)),
      queue_(pipeline.bus_.subscribe(topic_, node)),
      dfs_(dfs),
      ordered_(std::make_unique<sim::Channel<OpMessage>>(pipeline.sim_)),
      retry_queue_(std::make_unique<sim::Channel<OpMessage>>(pipeline.sim_)),
      wal_disk_(pipeline.sim_, sim::DiskConfig::nvme()),
      wal_(pipeline.sim_, wal_disk_, kWalFlushPeriod,
           pipeline.scope_.scoped("n" + std::to_string(node.value)).gauge("wal_backlog")) {}

CommitPipeline::Process& CommitPipeline::add_node(net::NodeId node, dfs::DfsClient& dfs) {
  Process& process = *processes_.emplace_back(std::make_unique<Process>(*this, node, dfs));
  sim_.spawn(process.sorter_loop());
  sim_.spawn(process.committer_loop());
  sim_.spawn(process.retry_loop());
  sim_.spawn(process.wal_.flusher_loop());
  return process;
}

std::uint32_t CommitPipeline::register_client(Process& home) {
  const auto id = static_cast<std::uint32_t>(clients_.size());
  clients_.push_back(&home);
  client_epochs_.push_back(epochs_.current_epoch());
  ++home.client_count_;
  return id;
}

void CommitPipeline::pending_increment(OpMessage& msg) {
  msg.path_hash = sim::Rng::hash(msg.path);
  ++pending_by_hash_[msg.path_hash];
  ++pending_total_;
  queue_depth_.set(static_cast<std::int64_t>(pending_total_));
}

void CommitPipeline::pending_decrement(const OpMessage& msg) {
  // The hash stamped at publish time rides in the message (and in its WAL
  // copy), so the commit side never rehashes the path.
  assert(msg.path_hash == sim::Rng::hash(msg.path) && "hash stamped by pending_increment");
  if (const auto it = pending_by_hash_.find(msg.path_hash); it != pending_by_hash_.end()) {
    if (--it->second == 0) pending_by_hash_.erase(it);
  }
  if (pending_total_ > 0 && --pending_total_ == 0) drained_gate_.open();
  queue_depth_.set(static_cast<std::int64_t>(pending_total_));
}

void CommitPipeline::publish(std::uint32_t client, OpMessage msg, obs::SpanId parent) {
  assert(client < clients_.size());
  Process* home = clients_[client];
  msg.epoch = client_epochs_[client];
  msg.timestamp = sim_.now();
  msg.op_id = ++next_op_id_;
  if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr && parent != obs::kNoSpan) {
    // The commit span deliberately outlives this call: it rides inside the
    // message across the pub/sub hop (and any WAL redelivery) and closes
    // only when apply_and_account settles the op's fate on the DFS.
    msg.span = tracer->begin_span("commit", parent, home->node_.value);
  }
  if (!is_barrier(msg)) pending_increment(msg);
  sim_.trace_note_lazy([&] {
    return "publish op=" + std::to_string(msg.op_id) + " kind=" + to_string(msg.kind) +
           " path=" + msg.path + " epoch=" + std::to_string(msg.epoch) +
           " client=" + std::to_string(client);
  });
  bus_.publish(home->node_, home->topic_handle_, std::move(msg));
}

sim::Task<> CommitPipeline::drain() {
  while (pending_total_ > 0) {
    drained_gate_.reset();
    co_await drained_gate_.wait();
  }
}

// ---- Barrier epochs ----------------------------------------------------------

sim::Task<std::uint64_t> CommitPipeline::run_barrier(net::NodeId from, obs::SpanId parent) {
  obs::Span span(parent != obs::kNoSpan ? sim_.tracer() : nullptr, "barrier", parent, from.value);
  co_await barrier_mutex_.lock();
  const std::uint64_t e = epochs_.current_epoch();
  // Only live nodes with a running commit process that actually host clients
  // owe a barrier report; a node without publishers has a trivially drained
  // queue, a crashed node will never report (its queued work is already
  // lost), and a crashed commit process reports only after restart.
  std::size_t participating = 0;
  for (const auto& process : processes_) {
    if (process->alive_ && process->running_ && process->client_count_ > 0) ++participating;
  }
  epochs_.set_node_count(participating);
  if (participating == 0) {
    barriers_.add();
    span.finish("drained");
    co_return e;
  }
  // Broadcast: every client pushes a barrier message and enters epoch e+1.
  // The physical broadcast to remote nodes costs one (parallel) one-way hop.
  co_await sim_.delay(fabric_.one_way(from, processes_.front()->node_, 64));
  for (std::uint32_t cid = 0; cid < clients_.size(); ++cid) {
    Process* home = clients_[cid];
    OpMessage b;
    b.kind = OpMessage::Kind::barrier;
    b.path = root_.str();
    b.epoch = e;
    b.timestamp = sim_.now();
    bus_.publish(home->node_, home->topic_handle_, std::move(b));
    client_epochs_[cid] = e + 1;
  }
  barriers_.add();
  barrier_inflight_epoch_ = e;
  const bool ok = co_await epochs_.wait_all_drained(e);
  barrier_inflight_epoch_.reset();
  sim_.trace_note_lazy([&] {
    return (ok ? "barrier-drained epoch=" : "barrier-aborted epoch=") + std::to_string(e);
  });
  span.finish(ok ? "drained" : "aborted");
  co_return e;
}

// ---- Per-node commit process -------------------------------------------------

sim::Task<> CommitPipeline::Process::sorter_loop() {
  // Sorter half: consumes the node's commit queue without ever blocking on
  // epoch state, so barrier messages are always seen promptly even while the
  // committer is held at an epoch boundary. The sorter is client-side queue
  // infrastructure: it survives commit-process crashes, and its WAL append
  // is what makes a consumed-but-uncommitted op redeliverable.
  for (;;) {
    auto msg = co_await queue_->recv();
    if (!msg) break;
    if (is_barrier(*msg)) {
      if (msg->epoch < pipeline_.epochs_.current_epoch()) continue;  // aborted epoch's stragglers
      auto& seen = barrier_seen_[msg->epoch];
      if (++seen == client_count_) {
        barrier_seen_.erase(msg->epoch);
        // Forward a single sentinel; per-publisher FIFO guarantees every
        // epoch-e operation from this node's clients precedes it.
        (void)ordered_->try_send(OpMessage{*msg});
      }
      continue;
    }
    // Durable before visible: once logged, a crash between here and the
    // DFS apply replays the op (at-least-once).
    wal_.append(*msg);
    (void)ordered_->try_send(std::move(*msg));
  }
  ordered_->close();
}

sim::Task<> CommitPipeline::Process::committer_loop() {
  const std::uint64_t generation = generation_;
  // Redeliver the WAL backlog first: ops a previous incarnation consumed
  // from the queue but never acknowledged. Already-applied ops are filtered
  // by their idempotency id (the acked set) or absorbed as EEXIST replays.
  for (OpMessage replay : wal_.unacked()) {
    if (generation_ != generation) co_return;
    pipeline_.redelivered_.add();
    sim_.trace_note_lazy([&] {
      return "redeliver op=" + std::to_string(replay.op_id) + " path=" + replay.path;
    });
    // The replayed apply nests under a "wal.replay" span which itself hangs
    // off the op's original (still-open) commit span, so a trace shows the
    // crash-and-redeliver detour inside the one logical operation.
    obs::Span replay_span(replay.span != obs::kNoSpan ? sim_.tracer() : nullptr, "wal.replay",
                          replay.span, node_.value);
    std::optional<OpMessage> rejected =
        co_await apply_and_account(std::move(replay), generation, replay_span.id());
    replay_span.finish(rejected ? "requeued" : "ok");
    if (generation_ != generation) co_return;
    if (rejected) park(std::move(*rejected));
  }
  for (;;) {
    auto msg = co_await ordered_->recv();
    if (!msg) break;
    if (generation_ != generation) co_return;  // crashed while parked
    if (is_barrier(*msg)) {
      // A barrier may only be reported once every operation of its epoch --
      // including ones parked for resubmission -- reached the DFS.
      while (retrying_ > 0 && alive_) {
        co_await sim_.delay(kCommitRetryDelay);
        if (generation_ != generation) co_return;
      }
      pipeline_.epochs_.node_reached_barrier(msg->epoch);
      continue;
    }
    if (alive_) co_await pipeline_.epochs_.wait_epoch_open(msg->epoch);
    if (generation_ != generation) co_return;
    std::optional<OpMessage> rejected = co_await apply_and_account(std::move(*msg), generation);
    if (generation_ != generation) co_return;
    // Independent commit: park for resubmission; keep draining the queue
    // (the op this one depends on may be right behind it).
    if (rejected) park(std::move(*rejected));
  }
}

void CommitPipeline::Process::park(OpMessage msg) {
  ++retrying_;
  (void)retry_queue_->try_send(std::move(msg));
}

sim::Task<> CommitPipeline::Process::retry_loop() {
  const std::uint64_t generation = generation_;
  for (;;) {
    std::optional<OpMessage> msg = co_await retry_queue_->recv();
    if (!msg) break;
    if (generation_ != generation) co_return;
    for (std::size_t attempt = 0; msg; ++attempt) {
      pipeline_.retries_.add();
      if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr && msg->span != obs::kNoSpan) {
        tracer->event(msg->span, "commit_retry", "attempt=" + std::to_string(attempt + 1));
      }
      co_await sim_.delay(kCommitRetry.backoff(attempt, pipeline_.rng_));
      if (generation_ != generation) co_return;
      msg = co_await apply_and_account(std::move(*msg), generation);
      if (generation_ != generation) co_return;
    }
    --retrying_;
  }
}

void CommitPipeline::Process::settle(const OpMessage& msg, const char* fate) {
  wal_.ack(msg.op_id);
  pipeline_.pending_decrement(msg);
  if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr && msg.span != obs::kNoSpan) {
    tracer->end_span(msg.span, fate);
  }
}

sim::Task<std::optional<OpMessage>> CommitPipeline::Process::apply_and_account(
    OpMessage msg, std::uint64_t generation, obs::SpanId span_override) {
  obs::Tracer* const tracer = sim_.tracer();
  if (wal_.acked(msg.op_id)) {
    // Idempotency-id dedup: a redelivered copy of an op that already reached
    // the DFS. Applied exactly once overall; nothing left to account.
    pipeline_.duplicates_.add();
    if (tracer != nullptr && msg.span != obs::kNoSpan) tracer->end_span(msg.span, "committed");
    co_return std::nullopt;
  }
  if (!alive_ || msg.op_id <= pipeline_.restore_fence_) {
    // Dead node: the op is lost (restore() repairs); account it out. An op
    // published before a restore belongs to the window the restore rolled
    // back (see fence()).
    settle(msg, "discarded");
    co_return std::nullopt;
  }
  FsError status = FsError::io;
  {
    // The DFS apply is a child of the commit span -- unless this is a WAL
    // redelivery, whose "wal.replay" span takes over as the parent.
    const obs::SpanId apply_parent = span_override != obs::kNoSpan ? span_override : msg.span;
    obs::Span apply_span(apply_parent != obs::kNoSpan ? tracer : nullptr, "dfs.apply",
                         apply_parent, node_.value);
    try {
      status = co_await apply_once(msg.kind, fs::Path::parse(msg.path), msg.mode, msg.size,
                                   apply_span.id());
    } catch (const net::RpcError&) {
      status = FsError::io;  // node or fabric failure mid-commit
    }
    apply_span.finish(status == FsError::ok || status == FsError::exists ? "ok" : "error");
  }
  if (generation_ != generation) {
    // Crashed mid-apply: whatever the DFS did is not acknowledged, so the op
    // redelivers on restart -- the at-least-once window idempotent replay
    // absorbs. Report it settled so the (dead) caller does not re-park it.
    // The commit span stays open; the redelivered copy closes it.
    co_return std::nullopt;
  }
  if (!alive_) {
    settle(msg, "discarded");
    co_return std::nullopt;
  }
  if (status == FsError::ok || status == FsError::exists) {
    // exists = an idempotent replay (e.g. recovery re-commit); accept.
    pipeline_.committed_.add();
    settle(msg, "committed");
    sim_.trace_note_lazy([&] {
      return "commit op=" + std::to_string(msg.op_id) + " kind=" + to_string(msg.kind) +
             " path=" + msg.path + " node=" + std::to_string(node_.value);
    });
    co_return std::nullopt;
  }
  if (status == FsError::not_found || status == FsError::not_a_directory) {
    // Self-heal: a trusted directory dentry on the op's path may be stale (a
    // workspace directory replaced behind the region's back). Resubmitting
    // through it would fail forever; the retry walks the path afresh.
    dfs_.forget(fs::Path::parse(msg.path));
  }
  sim_.trace_note_lazy([&] {
    return "commit-retry op=" + std::to_string(msg.op_id) + " path=" + msg.path;
  });
  co_return std::move(msg);
}

sim::Task<FsError> CommitPipeline::Process::apply_once(OpMessage::Kind kind, fs::Path path,
                                                       fs::FileMode mode, std::uint64_t size,
                                                       obs::SpanId span) {
  switch (kind) {
    case OpMessage::Kind::mkdir:
    case OpMessage::Kind::create: {
      auto r = kind == OpMessage::Kind::mkdir ? co_await dfs_.mkdir(path, mode, span)
                                              : co_await dfs_.create(path, mode, span);
      co_return r ? FsError::ok : r.error();
    }
    case OpMessage::Kind::remove: {
      auto r = co_await dfs_.unlink(path, span);
      if (r || r.error() == FsError::not_found) {
        // Applied (or already gone): drop the marked cache entry now.
        (void)co_await pipeline_.cache_.del(node_, path.str(), path.hash(), span);
        co_return FsError::ok;
      }
      co_return r.error();
    }
    case OpMessage::Kind::write_data: {
      auto r = co_await dfs_.write(path, 0, size, span);
      if (!r && r.error() == FsError::not_found) {
        // Either the create has not committed yet (retry) or another node's
        // remove already won (drop: a removed file's backup needs no data).
        const auto resp = co_await pipeline_.cache_.get(node_, path.str(), path.hash(), span);
        if (resp.status != kv::KvStatus::ok) co_return FsError::ok;
        const auto meta = decode_meta(resp.value);
        if (!meta || meta->removed) co_return FsError::ok;
        co_return FsError::not_found;
      }
      co_return r ? FsError::ok : r.error();
    }
    case OpMessage::Kind::barrier:
      co_return FsError::ok;  // handled by the committer directly
  }
  co_return FsError::unsupported;
}

// ---- Crash, restart, node loss -----------------------------------------------

void CommitPipeline::Process::abort_barrier() {
  if (pipeline_.barrier_inflight_epoch_ && client_count_ > 0) {
    pipeline_.aborts_.add();
    pipeline_.epochs_.abort_epoch(*pipeline_.barrier_inflight_epoch_);
  }
}

bool CommitPipeline::Process::node_lost() {
  if (!alive_) return false;
  alive_ = false;
  // The node's uncommitted operations are lost (the damage restore()
  // repairs). The commit machinery stays attached and discards everything it
  // drains -- including deliveries still in flight on the wire -- through
  // the dead-node path in apply_and_account, which keeps the pending
  // accounting exact so drain() stays live. A barrier waiting on this node's
  // report would hang forever: abort it so the dependent op replays against
  // the surviving membership.
  abort_barrier();
  return true;
}

void CommitPipeline::Process::crash() {
  if (!running_ || !alive_) return;
  running_ = false;
  ++generation_;
  pipeline_.crashes_.add();
  retrying_ = 0;
  barrier_seen_.clear();
  // The committer and retry worker die with their channels: whatever they
  // held in flight stays unacknowledged in the WAL and redelivers on
  // restart. The channels are closed (waking parked loops, which observe
  // the bumped generation and exit) but parked in a graveyard rather than
  // destructed under a suspended waiter.
  ordered_->close();
  retry_queue_->close();
  dead_channels_.push_back(std::move(ordered_));
  dead_channels_.push_back(std::move(retry_queue_));
  ordered_ = std::make_unique<sim::Channel<OpMessage>>(sim_);
  retry_queue_ = std::make_unique<sim::Channel<OpMessage>>(sim_);
  sim_.trace_note_lazy([&] {
    return "commit-crash node=" + std::to_string(node_.value) +
           " backlog=" + std::to_string(wal_.backlog());
  });
  // A barrier mid-drain can no longer complete: this node's sentinel (or
  // its report) died with the process.
  abort_barrier();
}

void CommitPipeline::Process::restart() {
  if (running_ || !alive_) return;
  running_ = true;
  sim_.trace_note_lazy([&] {
    return "commit-restart node=" + std::to_string(node_.value) +
           " backlog=" + std::to_string(wal_.backlog());
  });
  sim_.spawn(committer_loop());
  sim_.spawn(retry_loop());
}

}  // namespace pacon::core
