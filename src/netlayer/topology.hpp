#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "quantum/registry.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

/// \file topology.hpp
/// Multi-link topologies on a single simulation clock.
///
/// The paper's network layer (Section 3.3 / Figure 1b) composes
/// link-layer pairs into long-distance entanglement. A QuantumNetwork
/// instantiates N core::Links that share one Simulator, one Random
/// source, and one QuantumRegistry, so (a) every link advances on the
/// same deterministic clock and (b) qubits of different links can be
/// joined into one density matrix when a swap entangles them.
///
/// Since ISSUE 10 the network constructs against a sim::ShardedEngine
/// handle rather than owning a bare Simulator: by default it still owns
/// a private single-shard engine (byte-identical to the old behaviour),
/// but NetworkConfig::engine/shard bind it as one *island* of a sharded
/// run — all of its links (and their quantum state) live on that one
/// shard, and only classical channels may reach other shards.
///
/// Shape: an undirected edge list over arbitrary node ids. The
/// generators (chains, stars, rings, grids, tori, dragonflies, ...) live
/// in routing::Graph, and routing::make_network_config converts a graph
/// into a NetworkConfig. Edge lists are validated on construction: an
/// empty list, self-loops, duplicate links and unknown node ids are
/// rejected with std::invalid_argument.

namespace qlink::netlayer {

struct NetworkConfig {
  /// Undirected edge list, at least one link: link i joins global node
  /// ids edges[i].first (A side) and edges[i].second (B side).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  /// Node count; 0 infers max listed id + 1. Ids in `edges` must be
  /// < num_nodes.
  std::size_t num_nodes = 0;
  /// Per-link template (scenario, scheduler, ...). Node ids and labels
  /// are overwritten per link by the topology.
  core::LinkConfig link;
  /// Optional per-link customisation for heterogeneous networks: called
  /// with the link index and its template-initialised config (node ids
  /// already assigned) before the link is built.
  std::function<void(std::size_t, core::LinkConfig&)> configure_link;
  /// Seed of the single shared Random source.
  std::uint64_t seed = 1;
  /// Bind the network to one shard of an existing engine instead of
  /// owning a private single-shard one. Every link of this network
  /// lives on that shard (quantum links must be intra-shard — see
  /// sim::ShardAssignment); the engine must outlive the network.
  sim::ShardedEngine* engine = nullptr;
  std::size_t shard = 0;
};

/// One step of a route: which link to traverse and in which direction.
/// `reversed == false` means the route enters at the link's A node and
/// exits at its B node.
struct Hop {
  std::size_t link = 0;
  bool reversed = false;
};

class QuantumNetwork {
 public:
  explicit QuantumNetwork(const NetworkConfig& config);

  QuantumNetwork(const QuantumNetwork&) = delete;
  QuantumNetwork& operator=(const QuantumNetwork&) = delete;

  sim::Simulator& simulator() noexcept { return engine_->sim(shard_); }
  sim::ShardedEngine& engine() noexcept { return *engine_; }
  std::size_t shard() const noexcept { return shard_; }
  /// The handle downstream layers (planes, Router) construct against.
  sim::EngineRef engine_ref() noexcept { return engine_->ref(shard_); }
  sim::Random& random() noexcept { return random_; }
  quantum::QuantumRegistry& registry() noexcept { return registry_; }
  const NetworkConfig& config() const noexcept { return config_; }

  std::size_t num_links() const noexcept { return links_.size(); }
  std::size_t num_nodes() const noexcept { return num_nodes_; }
  core::Link& link(std::size_t i) { return *links_.at(i); }

  /// Global node ids of link i, (A side, B side).
  std::pair<std::uint32_t, std::uint32_t> endpoints(std::size_t i) const {
    return {links_.at(i)->node_id_a(), links_.at(i)->node_id_b()};
  }

  /// Node ids a hop enters at / exits from.
  std::uint32_t hop_entry(const Hop& h) const {
    const auto [a, b] = endpoints(h.link);
    return h.reversed ? b : a;
  }
  std::uint32_t hop_exit(const Hop& h) const {
    const auto [a, b] = endpoints(h.link);
    return h.reversed ? a : b;
  }

  /// EGP instance of node `node_id` on link i (node must be an endpoint).
  core::Egp& egp_at(std::size_t i, std::uint32_t node_id) {
    return links_.at(i)->egp(node_id);
  }

  /// A minimum-hop route between two nodes (breadth-first search; the
  /// unique route on tree topologies). General graphs get smarter
  /// routing from routing::PathSelector — this is the fallback the
  /// SwapService uses when no explicit route is supplied. Throws
  /// std::invalid_argument if either node id is out of range, the
  /// nodes coincide, or the nodes are not connected.
  std::vector<Hop> path(std::uint32_t src, std::uint32_t dst) const;

  /// Start every link's MHPs, all at this instant.
  void start();

  /// Advance the clock. When bound to a shared engine this drives the
  /// whole engine: every shard advances together to the same time.
  void run_for(sim::SimTime span) {
    engine_->run_until(simulator().now() + span);
  }
  void run_until(sim::SimTime t) { engine_->run_until(t); }

 private:
  /// Reject malformed edge lists (see file comment) and set num_nodes_.
  void validate_edges();

  NetworkConfig config_;
  /// Private single-shard engine when the config does not bind one.
  std::unique_ptr<sim::ShardedEngine> owned_engine_;
  sim::ShardedEngine* engine_ = nullptr;
  std::size_t shard_ = 0;
  sim::Random random_;
  quantum::QuantumRegistry registry_;
  std::size_t num_nodes_ = 0;
  /// One MHP cycle clock per distinct mhp_cycle among the links.
  std::vector<std::unique_ptr<proto::CycleClock>> clocks_;
  std::vector<std::unique_ptr<core::Link>> links_;
};

}  // namespace qlink::netlayer
