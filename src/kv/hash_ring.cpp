#include "kv/hash_ring.h"

#include <algorithm>
#include <cassert>

#include "sim/random.h"

namespace pacon::kv {

namespace {

bool point_less(const std::pair<std::uint64_t, net::NodeId>& a, std::uint64_t b) {
  return a.first < b;
}

/// MurmurHash3's fmix64 finalizer: every input bit flips each output bit
/// with probability ~1/2.
std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t HashRing::point(net::NodeId node, std::uint32_t replica) {
  return fmix64((static_cast<std::uint64_t>(node.value) << 32) | replica);
}

void HashRing::add_node(net::NodeId node) {
  if (std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end()) return;
  nodes_.push_back(node);
  std::vector<std::pair<std::uint64_t, net::NodeId>> fresh;
  fresh.reserve(vnodes_);
  for (std::uint32_t r = 0; r < vnodes_; ++r) fresh.emplace_back(point(node, r), node);
  std::sort(fresh.begin(), fresh.end());
  // One merge pass instead of a sorted insert per point. On a (vanishingly
  // unlikely) point collision the ring's existing owner keeps the point.
  std::vector<std::pair<std::uint64_t, net::NodeId>> merged;
  merged.reserve(ring_.size() + fresh.size());
  auto old_it = ring_.begin();
  for (const auto& entry : fresh) {
    while (old_it != ring_.end() && old_it->first < entry.first) merged.push_back(*old_it++);
    if (old_it != ring_.end() && old_it->first == entry.first) continue;
    if (!merged.empty() && merged.back().first == entry.first) continue;
    merged.push_back(entry);
  }
  merged.insert(merged.end(), old_it, ring_.end());
  ring_ = std::move(merged);
}

void HashRing::remove_node(net::NodeId node) {
  std::erase(nodes_, node);
  std::erase(suspects_, node);
  std::erase_if(ring_, [node](const auto& e) { return e.second == node; });
}

void HashRing::set_suspect(net::NodeId node, bool suspect) {
  if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) return;
  const auto it = std::find(suspects_.begin(), suspects_.end(), node);
  if (suspect && it == suspects_.end()) {
    suspects_.insert(std::upper_bound(suspects_.begin(), suspects_.end(), node), node);
  } else if (!suspect && it != suspects_.end()) {
    suspects_.erase(it);
  }
}

bool HashRing::is_suspect(net::NodeId node) const {
  return std::find(suspects_.begin(), suspects_.end(), node) != suspects_.end();
}

net::NodeId HashRing::node_for(std::string_view key) const {
  return node_for_hash(sim::Rng::hash(key));
}

net::NodeId HashRing::node_for_hash(std::uint64_t hash) const {
  return owner_at(fmix64(hash));
}

net::NodeId HashRing::owner_at(std::uint64_t position) const {
  assert(!ring_.empty());
  auto it = std::lower_bound(ring_.begin(), ring_.end(), position, point_less);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  if (suspects_.empty() || !is_suspect(it->second)) return it->second;
  // Failover: walk clockwise to the first non-suspect owner. Bounded by one
  // full revolution; with every node suspect, fall back to the raw owner.
  for (std::size_t step = 1; step < ring_.size(); ++step) {
    auto next = it + static_cast<std::ptrdiff_t>(step);
    if (next >= ring_.end()) next -= static_cast<std::ptrdiff_t>(ring_.size());
    if (!is_suspect(next->second)) return next->second;
  }
  return it->second;
}

}  // namespace pacon::kv
