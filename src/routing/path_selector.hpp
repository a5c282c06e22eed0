#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "routing/graph.hpp"

/// \file path_selector.hpp
/// Loop-free candidate-path computation over a routing::Graph.
///
/// A PathSelector turns a cost model into additive per-edge weights and
/// computes the k cheapest simple paths (Yen's algorithm over
/// deterministic Dijkstra, pruned by lower bounds on each node's
/// distance to the destination without changing which paths it
/// returns; see DESIGN.md "Pruned Yen, same paths"). Three cost models
/// ship:
///
///  - kHopCount: every edge costs 1 — classic shortest-path routing.
///  - kFidelity: edge weight -log w with w = (4F - 1)/3, the Werner
///    parameter of a pair at fidelity F. Entanglement swapping multiplies
///    Werner parameters (the XOR-convolution of Bell coefficient vectors,
///    qstate/bell_algebra.hpp), so minimising the sum of -log w maximises
///    the expected end-to-end fidelity estimate. `estimated_fidelity`
///    re-scores a candidate exactly by composing the per-edge Bell
///    coefficient vectors through the swap algebra.
///  - kLatency: edge weight = expected pair-generation time plus the
///    classical delay the swap announcements pick up crossing the edge.
///    (Hops generate in parallel, so the sum is a pessimistic proxy for
///    the wait on the slowest hop; it still orders candidates sensibly
///    because every summand also bounds that maximum.)

namespace qlink::routing {

enum class CostModel { kHopCount, kFidelity, kLatency };

const char* cost_model_name(CostModel model) noexcept;

/// A simple (loop-free) path: edge ids plus the node sequence they
/// traverse (nodes.size() == edges.size() + 1, nodes.front() == src).
struct Path {
  std::vector<std::size_t> edges;
  std::vector<std::uint32_t> nodes;
  double cost = 0.0;

  std::size_t hops() const noexcept { return edges.size(); }
  std::uint32_t src() const { return nodes.front(); }
  std::uint32_t dst() const { return nodes.back(); }
};

/// Not thread-safe: every search reuses scratch the selector owns, so a
/// selector serves one thread (routing::Router owns one per instance;
/// sharded runs give each island its own Router).
class PathSelector {
 public:
  explicit PathSelector(const Graph& graph,
                        CostModel model = CostModel::kHopCount);

  const Graph& graph() const noexcept { return graph_; }
  CostModel model() const noexcept { return model_; }

  /// Recompute the cached edge weights from the graph's current params.
  /// Searches read only the cache: call this after editing params or
  /// adding edges.
  void reweight();

  /// Cheapest path, or nullopt when src and dst are not connected.
  /// Throws std::invalid_argument for out-of-range ids or src == dst.
  std::optional<Path> shortest(std::uint32_t src, std::uint32_t dst) const;

  /// The k cheapest simple paths in nondecreasing cost order (fewer if
  /// the graph has fewer). Deterministic: ties break on node order.
  std::vector<Path> k_shortest(std::uint32_t src, std::uint32_t dst,
                               std::size_t k) const;

  /// As k_shortest, but no returned path uses any edge in
  /// `excluded_edges` — the re-routing search over a request's
  /// exclusion set (see Router). Unknown edge ids throw
  /// std::invalid_argument.
  std::vector<Path> k_shortest(std::uint32_t src, std::uint32_t dst,
                               std::size_t k,
                               std::span<const std::size_t> excluded_edges)
      const;

  /// Expected end-to-end fidelity of delivering over `path`: per-edge
  /// Werner states at EdgeParams::fidelity composed hop by hop through
  /// the Bell-diagonal swap algebra (exact for Werner inputs; the swap
  /// corrections make every measurement branch equivalent).
  static double estimated_fidelity(const Graph& graph, const Path& path);

  /// Expected latency proxy of `path`: sum of per-edge generation times
  /// plus the classical announcement delays (see kLatency above).
  static double estimated_latency_s(const Graph& graph, const Path& path);

 private:
  /// Ids marked by the current generation: clear() is O(1).
  struct StampSet {
    std::vector<std::uint32_t> stamp;
    std::uint32_t gen = 1;
    explicit StampSet(std::size_t n) : stamp(n, 0) {}
    void clear();
    void insert(std::size_t i) { stamp[i] = gen; }
    bool contains(std::size_t i) const { return stamp[i] == gen; }
  };

  std::vector<Path> yen(std::uint32_t src, std::uint32_t dst, std::size_t k,
                        std::span<const std::size_t> excluded) const;
  /// Fill lower_ with every node's distance to dst, avoiding the banned
  /// edges (no node is banned).
  void lower_bounds(std::uint32_t dst) const;
  /// Search src -> dst over the unbanned graph, never pushing a node v
  /// with d + lower_[v] > limit. Ordered: pops in (d, node id) order,
  /// the order that fixes which of several equal-cost paths is found.
  /// Otherwise A*: pops in (d + lower_, node id) order. Returns dst's
  /// distance, or infinity when no path fits the limit.
  double search(std::uint32_t src, std::uint32_t dst, double limit,
                bool ordered) const;
  /// The path plain Dijkstra finds from src to dst, given its `cost`:
  /// an ordered search that prunes everything dearer than that cost.
  Path ordered_path(std::uint32_t src, std::uint32_t dst,
                    double cost) const;

  const Graph& graph_;
  CostModel model_;
  std::vector<double> weights_;
  bool uniform_weights_ = true;  // every edge weighs the same

  // Search scratch, reused by every search.
  mutable std::vector<double> dist_;
  mutable std::vector<double> lower_;
  mutable std::vector<std::size_t> via_edge_;
  mutable std::vector<std::uint32_t> via_node_;
  mutable std::vector<std::pair<double, std::uint32_t>> heap_;
  mutable StampSet reached_;
  mutable StampSet banned_nodes_;
  mutable StampSet banned_edges_;
};

}  // namespace qlink::routing
