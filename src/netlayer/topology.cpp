#include "netlayer/topology.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>

namespace qlink::netlayer {

void QuantumNetwork::validate_edges() {
  // Validate before any link is built so malformed topologies fail
  // loudly instead of silently mis-routing.
  if (config_.edges.empty()) {
    throw std::invalid_argument("QuantumNetwork: at least one link");
  }
  std::uint32_t max_id = 0;
  for (const auto& [a, b] : config_.edges) {
    max_id = std::max({max_id, a, b});
  }
  num_nodes_ = config_.num_nodes != 0
                   ? config_.num_nodes
                   : static_cast<std::size_t>(max_id) + 1;
  for (std::size_t i = 0; i < config_.edges.size(); ++i) {
    const auto [a, b] = config_.edges[i];
    if (a == b) {
      throw std::invalid_argument("QuantumNetwork: link " +
                                  std::to_string(i) + " is a self-loop at node " +
                                  std::to_string(a));
    }
    if (a >= num_nodes_ || b >= num_nodes_) {
      throw std::invalid_argument(
          "QuantumNetwork: link " + std::to_string(i) +
          " references unknown node id " +
          std::to_string(a >= num_nodes_ ? a : b) + " (num_nodes = " +
          std::to_string(num_nodes_) + ")");
    }
    for (std::size_t j = 0; j < i; ++j) {
      const auto [pa, pb] = config_.edges[j];
      if ((pa == a && pb == b) || (pa == b && pb == a)) {
        throw std::invalid_argument(
            "QuantumNetwork: links " + std::to_string(j) + " and " +
            std::to_string(i) + " duplicate the pair " + std::to_string(a) +
            "-" + std::to_string(b));
      }
    }
  }
}

QuantumNetwork::QuantumNetwork(const NetworkConfig& config)
    : config_(config),
      owned_engine_(config.engine == nullptr
                        ? std::make_unique<sim::ShardedEngine>()
                        : nullptr),
      engine_(config.engine == nullptr ? owned_engine_.get() : config.engine),
      shard_(config.engine == nullptr ? 0 : config.shard),
      random_(config.seed),
      registry_(random_, config.link.backend) {
  if (shard_ >= engine_->num_shards()) {
    throw std::invalid_argument("QuantumNetwork: shard out of range");
  }
  sim::Simulator& simulator = engine_->sim(shard_);
  validate_edges();
  const auto& edges = config_.edges;
  links_.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    core::LinkConfig lc = config_.link;
    // Appended piecewise: GCC 12 reports a false -Wrestrict for a
    // string literal joined to or assigned into a std::string here.
    lc.label.assign(1, '[');
    lc.label += std::to_string(i);
    lc.label += ']';
    lc.node_id_a = edges[i].first;
    lc.node_id_b = edges[i].second;
    if (config_.configure_link) config_.configure_link(i, lc);
    // The per-link hook must not re-wire the topology (or swap in a
    // different backend than the shared registry was built with).
    lc.node_id_a = edges[i].first;
    lc.node_id_b = edges[i].second;
    lc.backend = config_.link.backend;
    auto clock = std::find_if(clocks_.begin(), clocks_.end(), [&](auto& c) {
      return c->period() == lc.scenario.mhp_cycle;
    });
    if (clock == clocks_.end()) {
      clocks_.push_back(std::make_unique<proto::CycleClock>(
          simulator, lc.scenario.mhp_cycle));
      clock = std::prev(clocks_.end());
    }
    links_.push_back(std::make_unique<core::Link>(simulator, random_,
                                                  registry_, **clock, lc));
  }
}

std::vector<Hop> QuantumNetwork::path(std::uint32_t src,
                                      std::uint32_t dst) const {
  const auto nodes = static_cast<std::uint32_t>(num_nodes());
  if (src >= nodes || dst >= nodes) {
    throw std::invalid_argument("path: node id out of range");
  }
  if (src == dst) {
    throw std::invalid_argument("path: src == dst");
  }

  // BFS over the adjacency (minimum-hop on general graphs, the unique
  // route on trees); record the hop that discovered each node and walk
  // back from dst.
  std::vector<std::optional<Hop>> via(nodes);
  std::vector<bool> seen(nodes, false);
  std::queue<std::uint32_t> frontier;
  seen[src] = true;
  frontier.push(src);
  while (!frontier.empty() && !seen[dst]) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const auto [a, b] = endpoints(i);
      std::optional<Hop> hop;
      if (a == u && !seen[b]) hop = Hop{i, false};
      if (b == u && !seen[a]) hop = Hop{i, true};
      if (!hop) continue;
      const std::uint32_t v = hop_exit(*hop);
      seen[v] = true;
      via[v] = *hop;
      frontier.push(v);
    }
  }
  if (!seen[dst]) {
    throw std::invalid_argument("path: nodes not connected");
  }

  std::vector<Hop> hops;
  for (std::uint32_t v = dst; v != src;) {
    const Hop h = *via[v];
    hops.push_back(h);
    v = hop_entry(h);
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

void QuantumNetwork::start() {
  for (auto& link : links_) link->start();
}

}  // namespace qlink::netlayer
