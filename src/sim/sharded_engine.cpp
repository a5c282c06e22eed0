#include "sim/sharded_engine.hpp"

#include <algorithm>

namespace qlink::sim {

// -- ShardAssignment -------------------------------------------------------

ShardAssignment ShardAssignment::blocks(std::size_t num_nodes,
                                        std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardAssignment::blocks: num_shards == 0");
  }
  if (num_shards > num_nodes) {
    throw std::invalid_argument(
        "ShardAssignment::blocks: more shards than nodes");
  }
  ShardAssignment a;
  a.num_shards = num_shards;
  a.shard_of.resize(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    a.shard_of[n] = static_cast<std::uint32_t>(n * num_shards / num_nodes);
  }
  return a;
}

// -- ShardedEngine ---------------------------------------------------------

ShardedEngine::ShardedEngine(Config config) {
  if (config.num_shards == 0) {
    throw std::invalid_argument("ShardedEngine: num_shards == 0");
  }
  sims_.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
}

void ShardedEngine::run_until(SimTime t) {
  if (sims_.size() == 1) {
    // Pass-through: byte-identical to the pre-sharding engine.
    sims_[0]->run_until(t);
    return;
  }
  for (;;) {
    // The earliest pending event over all shards; strict < keeps ties
    // on the lowest shard index.
    std::size_t first = 0;
    SimTime first_time = Simulator::kNoEventTime;
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      const SimTime next = sims_[i]->next_event_time();
      if (next < first_time) {
        first = i;
        first_time = next;
      }
    }
    if (first_time > t) break;  // kNoEventTime included
    sims_[first]->step();
  }
  // No event is left at or before t anywhere: this only sets clocks.
  for (auto& sim : sims_) sim->run_until(t);
}

SimTime ShardedEngine::now() const {
  SimTime m = sims_[0]->now();
  for (const auto& sim : sims_) m = std::min(m, sim->now());
  return m;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->events_processed();
  return total;
}

}  // namespace qlink::sim
