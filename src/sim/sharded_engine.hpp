#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

/// \file sharded_engine.hpp
/// Sharded discrete-event engine: one Simulator per shard, run as one
/// merged event stream on the calling thread.
///
/// run_until(t) repeatedly steps the shard whose next event is
/// earliest, ties going to the lowest shard index, until no shard holds
/// an event at or before t; then every clock is set to t. So every
/// shard's clock is at or before the time of the event running now,
/// and any handler may schedule_at on any shard at or after its own
/// now(): a cross-shard send is a plain schedule on the target shard's
/// Simulator (see net::ClassicalChannel). Determinism is per (seed,
/// shard count). With one shard the engine is a pass-through to the
/// single Simulator, byte-identical to pre-sharding behaviour.
///
/// Sharding pays through locality (each island routes over its own
/// small graph and owns its own heap), not concurrency: see DESIGN.md,
/// "Sharded engine".
namespace qlink::sim {

class ShardedEngine;

/// Binds a component to one shard of an engine. Network layers
/// (QuantumNetwork, FlowPlane, Router) construct against this handle
/// instead of a bare Simulator& so the same code runs single-shard or
/// as one island of a sharded run.
struct EngineRef {
  ShardedEngine* engine = nullptr;
  std::size_t shard = 0;

  explicit operator bool() const noexcept { return engine != nullptr; }
  /// The shard's simulator. Throws std::logic_error when unbound.
  Simulator& sim() const;
};

/// Maps nodes to shards. Every *quantum* link must be intra-shard —
/// quantum state cannot span simulators — so only classical channels
/// may cross shards. A QuantumNetwork or FlowPlane binds to one shard,
/// so its links are intra-shard by construction.
struct ShardAssignment {
  std::size_t num_shards = 1;
  std::vector<std::uint32_t> shard_of;  // node id -> shard

  /// Contiguous blocks: node n -> n * num_shards / num_nodes. Matches
  /// group-major topology generators (dragonfly, chain-of-groups).
  static ShardAssignment blocks(std::size_t num_nodes,
                                std::size_t num_shards);

  std::uint32_t shard(std::uint32_t node) const { return shard_of.at(node); }
};

class ShardedEngine {
 public:
  /// Ignored: shards always run merged on the calling thread. Kept
  /// because benchmark/qlinkbench.cpp still sets it.
  enum class Parallel { kAuto, kOff };

  struct Config {
    std::size_t num_shards = 1;
    Parallel parallel = Parallel::kAuto;  ///< ignored
  };

  /// Every field is always 0: the merge has no rounds, idle jumps,
  /// posts or bounded queues. Each is kept only because
  /// benchmark/qlinkbench.cpp reads it.
  struct Stats {
    std::uint64_t rounds = 0;           ///< read by qlinkbench
    std::uint64_t parallel_rounds = 0;  ///< read by qlinkbench
    std::uint64_t idle_jumps = 0;       ///< read by qlinkbench
    std::uint64_t posted = 0;           ///< read by qlinkbench
    std::uint64_t ring_overflows = 0;   ///< read by qlinkbench
  };

  ShardedEngine() : ShardedEngine(Config{}) {}
  explicit ShardedEngine(Config config);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t num_shards() const noexcept { return sims_.size(); }

  Simulator& sim(std::size_t shard) { return *sims_.at(shard); }
  const Simulator& sim(std::size_t shard) const { return *sims_.at(shard); }

  EngineRef ref(std::size_t shard) {
    if (shard >= sims_.size()) {
      throw std::out_of_range("ShardedEngine::ref: shard out of range");
    }
    return EngineRef{this, shard};
  }

  /// Advance every shard to exactly time \p t (events at \p t run), in
  /// global (time, shard index) order. Single-shard engines delegate
  /// straight to Simulator::run_until.
  void run_until(SimTime t);
  void run_for(SimTime span) { run_until(now() + span); }

  /// The slowest shard's clock (== every shard's clock outside run_until).
  SimTime now() const;

  Stats stats() const { return Stats{}; }

  /// Events executed, summed over shards.
  std::uint64_t events_processed() const;

 private:
  std::vector<std::unique_ptr<Simulator>> sims_;
};

inline Simulator& EngineRef::sim() const {
  if (engine == nullptr) {
    throw std::logic_error("EngineRef::sim: unbound engine handle");
  }
  return engine->sim(shard);
}

}  // namespace qlink::sim
