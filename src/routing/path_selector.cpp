#include "routing/path_selector.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "qstate/bell_algebra.hpp"

namespace qlink::routing {

namespace ba = qstate::bell_algebra;

namespace {

/// Werner parameter of a pair at fidelity f; floored far enough above
/// zero that -log stays finite for useless links (f <= 1/4 carries no
/// entanglement at all).
constexpr double kMinWerner = 1e-9;

double werner(double fidelity) {
  return std::max(kMinWerner, (4.0 * fidelity - 1.0) / 3.0);
}

/// Bell coefficient vector of the Werner state with fidelity f in the
/// corrected (Phi+-indexed) frame: the swap cascade's conditional
/// Paulis fold every outcome branch back to index 0, so composing in
/// this frame with mu = 0 is the expected end-to-end state.
ba::BellCoeffs werner_coeffs(double fidelity) {
  const double f = std::clamp(fidelity, 0.0, 1.0);
  const double rest = (1.0 - f) / 3.0;
  return {f, rest, rest, rest};
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative headroom on every pruning limit. A node's d + lower and the
/// limit sum the same weights in different orders, so they can differ
/// in the last bits; without headroom a node on the path the unpruned
/// search returns could be cut off, and with it that path.
constexpr double kSlack = 1e-9;

double with_slack(double limit) { return limit + kSlack * limit; }

}  // namespace

const char* cost_model_name(CostModel model) noexcept {
  switch (model) {
    case CostModel::kHopCount:
      return "hops";
    case CostModel::kFidelity:
      return "fidelity";
    case CostModel::kLatency:
      return "latency";
  }
  return "?";
}

std::optional<CostModel> parse_cost_model(std::string_view name) noexcept {
  if (name == "hops" || name == "hopcount") return CostModel::kHopCount;
  if (name == "fidelity") return CostModel::kFidelity;
  if (name == "latency") return CostModel::kLatency;
  return std::nullopt;
}

void PathSelector::StampSet::clear() {
  if (++gen == 0) {  // wrapped: old stamps would read as current
    std::fill(stamp.begin(), stamp.end(), 0);
    gen = 1;
  }
}

PathSelector::PathSelector(const Graph& graph, CostModel model)
    : graph_(graph),
      model_(model),
      dist_(graph.num_nodes()),
      lower_(graph.num_nodes()),
      via_edge_(graph.num_nodes()),
      via_node_(graph.num_nodes()),
      reached_(graph.num_nodes()),
      banned_nodes_(graph.num_nodes()),
      banned_edges_(graph.num_edges()) {
  reweight();
}

void PathSelector::reweight() {
  weights_.resize(graph_.num_edges());
  banned_edges_ = StampSet(graph_.num_edges());
  for (std::size_t e = 0; e < weights_.size(); ++e) {
    const EdgeParams& p = graph_.params(e);
    switch (model_) {
      case CostModel::kHopCount:
        weights_[e] = 1.0;
        break;
      case CostModel::kFidelity:
        weights_[e] = -std::log(werner(p.fidelity));
        break;
      case CostModel::kLatency:
        weights_[e] = p.pair_time_s + p.delay_s;
        break;
    }
  }
  uniform_weights_ = std::adjacent_find(weights_.begin(), weights_.end(),
                                        std::not_equal_to<>()) ==
                     weights_.end();
}

void PathSelector::lower_bounds(std::uint32_t dst) const {
  std::fill(lower_.begin(), lower_.end(), kInf);
  lower_[dst] = 0.0;
  heap_.assign(1, {0.0, dst});
  // With one weight on every edge (hop count), nodes are first reached
  // in nondecreasing distance and never improved after: a FIFO over
  // heap_ settles them in BFS order without the heap's log-cost.
  std::size_t head = 0;  // next FIFO entry (uniform weights)
  while (uniform_weights_ ? head < heap_.size() : !heap_.empty()) {
    std::pair<double, std::uint32_t> top;
    if (uniform_weights_) {
      top = heap_[head++];
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      top = heap_.back();
      heap_.pop_back();
    }
    const auto [d, u] = top;
    if (d > lower_[u]) continue;
    for (const Graph::Adjacency& adj : graph_.neighbors(u)) {
      if (banned_edges_.contains(adj.edge)) continue;
      const double nd = d + weights_[adj.edge];
      if (nd < lower_[adj.peer]) {
        lower_[adj.peer] = nd;
        heap_.emplace_back(nd, adj.peer);
        if (!uniform_weights_) {
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        }
      }
    }
  }
}

double PathSelector::search(std::uint32_t src, std::uint32_t dst,
                            double limit, bool ordered) const {
  reached_.clear();
  reached_.insert(src);
  dist_[src] = 0.0;
  // (key, node): ties resolve to the lowest node id, so candidate
  // enumeration is deterministic across platforms.
  heap_.assign(1, {ordered ? 0.0 : lower_[src], src});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [key, u] = heap_.back();
    heap_.pop_back();
    const double d = dist_[u];
    if (key > (ordered ? d : d + lower_[u])) continue;  // superseded
    if (u == dst) return d;
    for (const Graph::Adjacency& adj : graph_.neighbors(u)) {
      const std::uint32_t v = adj.peer;
      if (banned_edges_.contains(adj.edge) || banned_nodes_.contains(v)) {
        continue;
      }
      const double nd = d + weights_[adj.edge];
      if (reached_.contains(v) && nd >= dist_[v]) continue;
      const double bound = nd + lower_[v];
      if (bound > limit) continue;  // cannot lie on a path within limit
      reached_.insert(v);
      dist_[v] = nd;
      via_edge_[v] = adj.edge;
      via_node_[v] = u;
      heap_.emplace_back(ordered ? nd : bound, v);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  }
  return kInf;
}

Path PathSelector::ordered_path(std::uint32_t src, std::uint32_t dst,
                                double cost) const {
  if (search(src, dst, with_slack(cost), true) == kInf) {
    throw std::logic_error("PathSelector: pruning cut off the path");
  }
  Path path;
  path.cost = dist_[dst];
  for (std::uint32_t v = dst; v != src; v = via_node_[v]) {
    path.edges.push_back(via_edge_[v]);
    path.nodes.push_back(v);
  }
  path.nodes.push_back(src);
  std::reverse(path.edges.begin(), path.edges.end());
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

std::optional<Path> PathSelector::shortest(std::uint32_t src,
                                           std::uint32_t dst) const {
  std::vector<Path> paths = yen(src, dst, 1, {});
  if (paths.empty()) return std::nullopt;
  return std::move(paths.front());
}

std::vector<Path> PathSelector::k_shortest(std::uint32_t src,
                                           std::uint32_t dst,
                                           std::size_t k) const {
  return yen(src, dst, k, {});
}

std::vector<Path> PathSelector::k_shortest(
    std::uint32_t src, std::uint32_t dst, std::size_t k,
    std::span<const std::size_t> excluded_edges) const {
  for (const std::size_t e : excluded_edges) {
    if (e >= graph_.num_edges()) {
      throw std::invalid_argument("PathSelector: unknown excluded edge");
    }
  }
  return yen(src, dst, k, excluded_edges);
}

std::vector<Path> PathSelector::yen(
    std::uint32_t src, std::uint32_t dst, std::size_t k,
    std::span<const std::size_t> excluded) const {
  if (src >= graph_.num_nodes() || dst >= graph_.num_nodes()) {
    throw std::invalid_argument("PathSelector: node id out of range");
  }
  if (src == dst) {
    throw std::invalid_argument("PathSelector: src == dst");
  }
  std::vector<Path> found;
  if (k == 0) return found;
  const auto ban_excluded = [&] {
    banned_nodes_.clear();
    banned_edges_.clear();
    for (const std::size_t e : excluded) banned_edges_.insert(e);
  };

  // Every search below bans the excluded edges and maybe more, so the
  // distances to dst over the graph minus `excluded` are lower bounds
  // for all of them (DESIGN.md "Pruned Yen, same paths" has why pruning
  // on them keeps the returned paths).
  ban_excluded();
  lower_bounds(dst);
  if (lower_[src] == kInf) return found;
  found.push_back(ordered_path(src, dst, lower_[src]));

  // Yen's algorithm: spur off every prefix of the last accepted path
  // with that prefix's edges/nodes banned, keep the cheapest candidate.
  const auto path_less = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;  // deterministic tie-break
  };
  std::vector<Path> candidates;

  while (found.size() < k) {
    // The last round only takes the cheapest candidate, so its spur
    // searches give up on anything dearer than the best one so far.
    const bool last_round = found.size() + 1 == k;
    double best = kInf;
    if (last_round) {
      for (const Path& c : candidates) best = std::min(best, c.cost);
    }
    const Path& prev = found.back();
    double root_cost = 0.0;
    for (std::size_t i = 0; i < prev.edges.size(); ++i) {
      const std::uint32_t spur = prev.nodes[i];
      if (i > 0) root_cost += weights_[prev.edges[i - 1]];

      ban_excluded();
      // The root path up to the spur node must not be re-entered.
      for (std::size_t j = 0; j < i; ++j) banned_nodes_.insert(prev.nodes[j]);
      // Any accepted path sharing this root must deviate here.
      for (const Path& p : found) {
        if (p.edges.size() > i &&
            std::equal(p.nodes.begin(), p.nodes.begin() + i + 1,
                       prev.nodes.begin())) {
          banned_edges_.insert(p.edges[i]);
        }
      }

      // A* finds the spur's distance; the ordered search then finds the
      // same path plain Dijkstra would, exploring only nodes within it.
      const double limit = best == kInf ? std::numeric_limits<double>::max()
                                        : with_slack(best) - root_cost;
      const double spur_cost = search(spur, dst, limit, false);
      if (spur_cost == kInf) continue;
      const Path spur_path = ordered_path(spur, dst, spur_cost);

      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i);
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin(),
                         spur_path.nodes.end());
      total.edges.insert(total.edges.end(), spur_path.edges.begin(),
                         spur_path.edges.end());
      total.cost = spur_path.cost;
      for (std::size_t j = 0; j < i; ++j) {
        total.cost += weights_[prev.edges[j]];
      }

      const auto dup = [&](const Path& p) {
        return p.edges == total.edges;
      };
      if (std::none_of(found.begin(), found.end(), dup) &&
          std::none_of(candidates.begin(), candidates.end(), dup)) {
        if (last_round) best = std::min(best, total.cost);
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    const auto best_it =
        std::min_element(candidates.begin(), candidates.end(), path_less);
    found.push_back(std::move(*best_it));
    candidates.erase(best_it);
  }
  return found;
}

double PathSelector::estimated_fidelity(const Graph& graph,
                                        const Path& path) {
  if (path.edges.empty()) return 0.0;
  ba::BellCoeffs acc = werner_coeffs(graph.params(path.edges[0]).fidelity);
  for (std::size_t i = 1; i < path.edges.size(); ++i) {
    acc = ba::swap_coefficients(
        acc, werner_coeffs(graph.params(path.edges[i]).fidelity), 0, 0);
  }
  return acc[0];
}

double PathSelector::estimated_latency_s(const Graph& graph,
                                         const Path& path) {
  double total = 0.0;
  for (const std::size_t e : path.edges) {
    total += graph.params(e).pair_time_s + graph.params(e).delay_s;
  }
  return total;
}

}  // namespace qlink::routing
