#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

/// \file sharded_engine.hpp
/// Conservative sharded discrete-event engine: one Simulator per shard,
/// cross-shard events through per-coupling outboxes, channel delays as
/// lookahead.
///
/// The network is partitioned into shards that interact only through
/// classical channels with a known minimum delay D. That delay is the
/// conservative lookahead of classic CMB-style simulation: if shard
/// `from` has clock c, nothing it does can affect shard `to` before
/// c + D, so `to` may safely run to min over incoming couplings of
/// (c_from + D − 1). The engine advances all shards round by round, on
/// the calling thread:
///
///   drain outboxes → compute per-shard bounds → run each shard to its
///   bound, in shard order → drain outboxes → repeat
///
/// Within a round shards share nothing: cross-shard sends go through
/// ShardedEngine::post, which appends to the per-(from,to) outbox, read
/// only at the barrier. The engine drains outboxes in fixed
/// (from, to)-lexicographic order, FIFO within each outbox, so
/// determinism is per (seed, shard count). With one shard the engine is
/// a pass-through to the single Simulator, byte-identical to
/// pre-sharding behaviour. Sharding pays through locality (each island
/// routes over its own small graph), not concurrency: DESIGN.md's
/// "Sharded engine" records why threaded rounds were removed.
///
/// When no shard has a runnable event under its bound, the engine
/// fast-forwards every clock to the globally earliest pending event
/// instead of stepping rounds one lookahead at a time (safe: events are
/// only created by handlers, and no handler can run before that time).
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

/// Maps nodes to shards. The assignment rule (see DESIGN.md): every
/// *quantum* link must be intra-shard — quantum state cannot span
/// simulators — so only classical channels may cross shards.
struct ShardAssignment {
  std::size_t num_shards = 1;
  std::vector<std::uint32_t> shard_of;  // node id -> shard

  static ShardAssignment single(std::size_t num_nodes);
  /// Contiguous blocks: node n -> n * num_shards / num_nodes. Matches
  /// group-major topology generators (dragonfly, chain-of-groups).
  static ShardAssignment blocks(std::size_t num_nodes,
                                std::size_t num_shards);

  std::uint32_t shard(std::uint32_t node) const { return shard_of.at(node); }

  /// Enforces the assignment rule for a quantum edge list: throws
  /// std::invalid_argument naming the first edge whose endpoints map to
  /// different shards.
  void validate_intra_shard(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges)
      const;
};

class ShardedEngine {
 public:
  /// Ignored: rounds always run on the calling thread. Kept because
  /// benches still name it.
  enum class Parallel { kAuto, kOff };

  struct Config {
    std::size_t num_shards = 1;
    Parallel parallel = Parallel::kAuto;  ///< ignored
  };

  struct Stats {
    std::uint64_t rounds = 0;          ///< barrier rounds executed
    /// Always 0: no round runs on threads. Kept because benches report it.
    std::uint64_t parallel_rounds = 0;
    std::uint64_t idle_jumps = 0;      ///< rounds fast-forwarded to the
                                       ///< next global event
    std::uint64_t posted = 0;          ///< cross-shard events posted
    std::uint64_t drained = 0;         ///< cross-shard events delivered
    /// Always 0: outboxes grow without bound, so no post takes a slow
    /// path. Kept because benches report it.
    std::uint64_t ring_overflows = 0;
  };

  /// Couplings tighter than this cannot make progress (a round must
  /// advance every bound by at least one tick past the posting clock).
  static constexpr SimTime kMinLookahead = 2;

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

  /// Declare a directional coupling: shard \p from may post events to
  /// shard \p to, never closer than \p min_delay ahead of `from`'s
  /// clock. Repeat calls keep the tightest delay. Must be called before
  /// the first post for the pair; min_delay < kMinLookahead throws
  /// std::invalid_argument (the round protocol could livelock).
  void connect(std::size_t from, std::size_t to, SimTime min_delay);

  /// The declared lookahead, or 0 when the pair is not connected.
  SimTime lookahead(std::size_t from, std::size_t to) const;

  /// Cross-shard send: schedule \p fn at absolute time \p at on shard
  /// \p to. Callable from `from`'s handlers mid-round (this is the only
  /// cross-shard channel there is). Throws std::logic_error when
  /// the pair is not connected and std::invalid_argument when \p at is
  /// below `from`'s clock plus the declared lookahead.
  void post(std::size_t from, std::size_t to, SimTime at,
            std::function<void()> fn, const char* label = nullptr);

  /// Advance every shard to exactly time \p t (events at \p t run).
  /// Single-shard engines delegate straight to Simulator::run_until.
  void run_until(SimTime t);
  void run_for(SimTime span) { run_until(now() + span); }

  /// The slowest shard's clock (== every shard's clock outside run_until).
  SimTime now() const;

  Stats stats() const { return stats_; }

  // -- Merged telemetry --------------------------------------------------

  std::uint64_t events_processed() const;
  std::size_t heap_high_water() const;
  void set_telemetry(bool on);
  /// Per-label executed-event counts merged across shards by label
  /// text, sorted by label.
  std::vector<Simulator::LabelStat> label_stats() const;

 private:
  struct CrossEvent {
    SimTime at = 0;
    const char* label = nullptr;
    std::function<void()> fn;
  };

  /// One directional (from, to) channel. Only shard `from`'s handlers
  /// fill `outbox`; the engine drains it at the barrier.
  struct Coupling {
    SimTime min_delay = 0;  ///< 0 = not connected
    std::vector<CrossEvent> outbox;
  };

  Coupling& coupling(std::size_t from, std::size_t to) noexcept {
    return couplings_[from * sims_.size() + to];
  }
  const Coupling& coupling(std::size_t from, std::size_t to) const noexcept {
    return couplings_[from * sims_.size() + to];
  }

  /// Deliver every outbox entry to its target simulator, in
  /// (from, to)-lexicographic order, FIFO within an outbox. Caller must
  /// be at a barrier (no shard mid-round).
  void drain_all();

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Coupling> couplings_;  // num_shards^2, row-major by `from`
  Stats stats_;
};

inline Simulator& EngineRef::sim() const {
  if (engine == nullptr) {
    throw std::logic_error("EngineRef::sim: unbound engine handle");
  }
  return engine->sim(shard);
}

}  // namespace qlink::sim
