// Node-local durable commit log: at-least-once redelivery across
// commit-process crashes.
//
// The sorter half of a commit process appends every operation it takes off
// the node's commit queue *before* forwarding it to the committer; the
// committer (or retry worker) acknowledges an op once the DFS accepted it.
// If the commit process dies, everything between append and ack is replayed
// on restart -- the op may reach the DFS twice, which is why commit
// application must stay idempotent (op ids + EEXIST-tolerant replay).
//
// Durability cost is modelled with group commit: appends and acks accumulate
// dirty bytes that a background flusher writes to the node-local disk once
// per flush period, the way a real WAL batches fsyncs. The in-memory deque
// is the log's contents; acknowledged prefixes are compacted away.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "core/op_message.h"
#include "sim/disk.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace pacon::core {

class CommitWal {
 public:
  /// `backlog_gauge` tracks the unacked backlog: the WAL cannot name a
  /// registry metric itself (it does not know which region/node it belongs
  /// to), so the owner resolves the gauge and hands it in.
  CommitWal(sim::Simulation& sim, sim::SimDisk& disk, sim::SimDuration flush_period,
            sim::Gauge& backlog_gauge)
      : sim_(sim), disk_(disk), flush_period_(flush_period), backlog_gauge_(backlog_gauge) {
    note_backlog();
  }
  CommitWal(const CommitWal&) = delete;
  CommitWal& operator=(const CommitWal&) = delete;

  /// Records `msg` (keyed by its op_id) before it is handed to the
  /// committer. Barrier sentinels are never logged: an aborted barrier is
  /// replayed by the dependent operation itself, not from the log.
  void append(const OpMessage& msg) {
    log_.push_back(msg);
    dirty_bytes_ += kRecordOverhead + msg.path.size();
    note_backlog();
  }

  /// The DFS applied op `op_id`; it will not be redelivered.
  void ack(std::uint64_t op_id) {
    acked_.insert(op_id);
    dirty_bytes_ += kAckBytes;
    compact();
    note_backlog();
  }

  bool acked(std::uint64_t op_id) const { return acked_.contains(op_id); }

  /// Appended-but-unacknowledged ops in append order -- the redelivery set a
  /// restarted commit process replays first.
  std::vector<OpMessage> unacked() const {
    std::vector<OpMessage> out;
    out.reserve(log_.size());
    for (const auto& msg : log_) {
      if (!acked_.contains(msg.op_id)) out.push_back(msg);
    }
    return out;
  }

  std::size_t backlog() const { return log_.size() - acked_.size(); }


  /// Stops the flusher at its next tick (region teardown).
  void stop() { stopped_ = true; }

  /// Group-commit flusher; spawn once per WAL. Runs until stop().
  sim::Task<> flusher_loop() {
    for (;;) {
      co_await sim_.delay(flush_period_);
      if (stopped_) co_return;
      if (dirty_bytes_ == 0) continue;
      const std::uint64_t batch = dirty_bytes_;
      dirty_bytes_ = 0;
      co_await disk_.write(batch);
    }
  }

 private:
  /// Serialized record framing: op id, kind, epoch, mode, timestamps.
  static constexpr std::uint64_t kRecordOverhead = 48;
  static constexpr std::uint64_t kAckBytes = 16;

  /// Drops the fully-acknowledged log prefix. An op can only be re-appended
  /// never (queue delivery is one-shot; redelivery replays from this log),
  /// so forgetting an acked id once its record left the log is safe.
  void compact() {
    while (!log_.empty() && acked_.contains(log_.front().op_id)) {
      acked_.erase(log_.front().op_id);
      log_.pop_front();
    }
  }

  void note_backlog() { backlog_gauge_.set(static_cast<std::int64_t>(backlog())); }

  sim::Simulation& sim_;
  sim::SimDisk& disk_;
  sim::SimDuration flush_period_;
  std::deque<OpMessage> log_;
  std::unordered_set<std::uint64_t> acked_;
  std::uint64_t dirty_bytes_ = 0;
  bool stopped_ = false;
  sim::Gauge& backlog_gauge_;
};

}  // namespace pacon::core
