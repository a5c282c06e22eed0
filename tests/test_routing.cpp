#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <vector>

#include "qstate/bell_algebra.hpp"
#include "routing/graph.hpp"
#include "routing/path_selector.hpp"
#include "routing/reservation.hpp"

/// Unit tests for the routing subsystem's pure pieces: graph model and
/// generators, k-shortest path selection under the three cost models,
/// and the reservation table's admission / blocked-retry mechanics.
/// Router-over-QuantumNetwork integration lives in test_netlayer.cpp.

namespace qlink::routing {
namespace {

TEST(RoutingGraph, ValidatesEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(2, 2), std::invalid_argument);  // self-loop
  EXPECT_THROW(g.add_edge(0, 4), std::invalid_argument);  // unknown id
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);  // duplicate
  EdgeParams zero;
  zero.capacity = 0;
  EXPECT_THROW(g.add_edge(2, 3, zero), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_THROW(Graph(1), std::invalid_argument);
}

TEST(RoutingGraph, GeneratorShapes) {
  const Graph chain = Graph::chain(5);
  EXPECT_EQ(chain.num_nodes(), 5u);
  EXPECT_EQ(chain.num_edges(), 4u);
  EXPECT_TRUE(chain.connected());

  const Graph ring = Graph::ring(6);
  EXPECT_EQ(ring.num_edges(), 6u);
  for (std::uint32_t n = 0; n < 6; ++n) {
    EXPECT_EQ(ring.neighbors(n).size(), 2u);
  }

  const Graph star = Graph::star(4);
  EXPECT_EQ(star.num_nodes(), 5u);
  EXPECT_EQ(star.neighbors(0).size(), 4u);

  const Graph grid = Graph::grid(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  // 3 rows x 3 horizontal + 2 x 4 vertical.
  EXPECT_EQ(grid.num_edges(), 3u * 3u + 2u * 4u);
  EXPECT_TRUE(grid.connected());
  EXPECT_NE(grid.find_edge(0, 1), Graph::npos);
  EXPECT_NE(grid.find_edge(0, 4), Graph::npos);
  EXPECT_EQ(grid.find_edge(0, 5), Graph::npos);

  const Graph torus = Graph::torus(3, 4);
  // Grid edges + 3 row wraps + 4 column wraps; every node degree 4.
  EXPECT_EQ(torus.num_edges(), 17u + 3u + 4u);
  for (std::uint32_t n = 0; n < 12; ++n) {
    EXPECT_EQ(torus.neighbors(n).size(), 4u);
  }
  // A torus of extent 2 in one dimension must not duplicate the mesh
  // edge with a wrap: only the extent-3 dimension gets its two wraps.
  const Graph thin = Graph::torus(2, 3);
  EXPECT_EQ(thin.num_edges(), 7u + 2u);

  const Graph fly = Graph::dragonfly(4, 3);
  EXPECT_EQ(fly.num_nodes(), 12u);
  // 4 groups x C(3,2) intra + C(4,2) global.
  EXPECT_EQ(fly.num_edges(), 4u * 3u + 6u);
  EXPECT_TRUE(fly.connected());
}

TEST(PathSelector, HopCountShortestOnRing) {
  const Graph ring = Graph::ring(6);
  const PathSelector sel(ring, CostModel::kHopCount);
  const auto best = sel.shortest(0, 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->hops(), 1u);  // the closing edge 5-0
  EXPECT_EQ(best->nodes, (std::vector<std::uint32_t>{0, 5}));

  // k = 2 surfaces the long way around as well.
  const auto both = sel.k_shortest(0, 5, 2);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].hops(), 1u);
  EXPECT_EQ(both[1].hops(), 5u);
  EXPECT_EQ(both[1].nodes, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_LE(both[0].cost, both[1].cost);

  EXPECT_THROW(sel.shortest(0, 0), std::invalid_argument);
  EXPECT_THROW(sel.shortest(0, 9), std::invalid_argument);
}

TEST(PathSelector, KShortestAreSimpleAndOrdered) {
  const Graph grid = Graph::grid(3, 3);
  const PathSelector sel(grid, CostModel::kHopCount);
  const auto paths = sel.k_shortest(0, 8, 6);
  ASSERT_EQ(paths.size(), 6u);  // corner-to-corner: six 4-hop routes
  for (const Path& p : paths) {
    EXPECT_EQ(p.hops(), 4u);
    EXPECT_EQ(p.src(), 0u);
    EXPECT_EQ(p.dst(), 8u);
    // Simple: no node repeats.
    std::vector<std::uint32_t> nodes = p.nodes;
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end());
  }
  // Distinct edge sequences.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i].edges, paths[j].edges);
    }
  }
}

TEST(PathSelector, NoPathAcrossDisconnectedComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const PathSelector sel(g);
  EXPECT_FALSE(sel.shortest(0, 3).has_value());
  EXPECT_TRUE(sel.k_shortest(0, 3, 3).empty());
  EXPECT_FALSE(g.connected());
}

TEST(PathSelector, FidelityModelPrefersCleanDetour) {
  // Ring of 6, endpoints 0 and 3: both ways are 3 hops, but the
  // low-numbered side is degraded. Hop count ties (and its
  // deterministic tie-break takes the degraded side); the fidelity
  // model must pay the identical hop count for the clean side.
  EdgeParams clean;
  clean.fidelity = 0.9;
  Graph ring = Graph::ring(6, clean);
  for (const auto [a, b] : {std::pair{0u, 1u}, {1u, 2u}, {2u, 3u}}) {
    ring.params(ring.find_edge(a, b)).fidelity = 0.6;
  }

  const PathSelector hops(ring, CostModel::kHopCount);
  const auto hop_path = hops.shortest(0, 3);
  ASSERT_TRUE(hop_path.has_value());
  EXPECT_EQ(hop_path->nodes, (std::vector<std::uint32_t>{0, 1, 2, 3}));

  const PathSelector fid(ring, CostModel::kFidelity);
  const auto fid_path = fid.shortest(0, 3);
  ASSERT_TRUE(fid_path.has_value());
  EXPECT_EQ(fid_path->nodes, (std::vector<std::uint32_t>{0, 5, 4, 3}));
  EXPECT_GT(PathSelector::estimated_fidelity(ring, *fid_path),
            PathSelector::estimated_fidelity(ring, *hop_path));
}

TEST(PathSelector, EstimatedFidelityMatchesSwapAlgebra) {
  // Two hops at Werner fidelities f1, f2 compose through the Bell
  // XOR-convolution; the closed form for Werner inputs is
  // F = f1 f2 + (1 - f1)(1 - f2) / 3.
  EdgeParams e1, e2;
  e1.fidelity = 0.9;
  e2.fidelity = 0.8;
  Graph chain(3);
  chain.add_edge(0, 1, e1);
  chain.add_edge(1, 2, e2);
  const PathSelector sel(chain, CostModel::kFidelity);
  const auto path = sel.shortest(0, 2);
  ASSERT_TRUE(path.has_value());
  const double expected = 0.9 * 0.8 + (0.1 * 0.2) / 3.0;
  EXPECT_NEAR(PathSelector::estimated_fidelity(chain, *path), expected,
              1e-12);
  // Single hop: the estimate is the edge fidelity itself.
  Path one;
  one.edges = {0};
  one.nodes = {0, 1};
  EXPECT_NEAR(PathSelector::estimated_fidelity(chain, one), 0.9, 1e-12);
}

TEST(PathSelector, LatencyModelAvoidsSlowLinks) {
  // 0-1-2 fast detour vs direct slow 0-2.
  EdgeParams fast, slow;
  fast.pair_time_s = 0.01;
  slow.pair_time_s = 0.2;
  Graph g(3);
  g.add_edge(0, 1, fast);
  g.add_edge(1, 2, fast);
  g.add_edge(0, 2, slow);
  const PathSelector lat(g, CostModel::kLatency);
  const auto path = lat.shortest(0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2u);
  EXPECT_NEAR(PathSelector::estimated_latency_s(g, *path), 0.02, 1e-12);
  // Hop count would take the direct edge.
  const PathSelector hops(g, CostModel::kHopCount);
  EXPECT_EQ(hops.shortest(0, 2)->hops(), 1u);
}

// ---------------------------------------------------------------------------
// Exactness of the pruned Yen search against the plain one.

/// The selector's cost-model weights, recomputed from the params.
double reference_weight(const EdgeParams& p, CostModel model) {
  switch (model) {
    case CostModel::kHopCount:
      return 1.0;
    case CostModel::kFidelity:
      return -std::log(std::max(1e-9, (4.0 * p.fidelity - 1.0) / 3.0));
    case CostModel::kLatency:
      return p.pair_time_s + p.delay_s;
  }
  return 1.0;
}

/// Plain Dijkstra, popping in (distance, node id) order: the unpruned
/// search the selector must reproduce path for path.
std::optional<Path> reference_dijkstra(const Graph& g,
                                       const std::vector<double>& w,
                                       std::uint32_t src, std::uint32_t dst,
                                       const std::vector<bool>& banned_nodes,
                                       const std::vector<bool>& banned_edges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_nodes(), kInf);
  std::vector<std::size_t> via_edge(g.num_nodes(), Graph::npos);
  std::vector<std::uint32_t> via_node(g.num_nodes(), 0);
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  dist[src] = 0.0;
  frontier.emplace(0.0, src);
  while (!frontier.empty()) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (const Graph::Adjacency& adj : g.neighbors(u)) {
      if (banned_edges[adj.edge] || banned_nodes[adj.peer]) continue;
      const double nd = d + w[adj.edge];
      if (nd < dist[adj.peer]) {
        dist[adj.peer] = nd;
        via_edge[adj.peer] = adj.edge;
        via_node[adj.peer] = u;
        frontier.emplace(nd, adj.peer);
      }
    }
  }
  if (dist[dst] == kInf) return std::nullopt;
  Path path;
  path.cost = dist[dst];
  for (std::uint32_t v = dst; v != src; v = via_node[v]) {
    path.edges.push_back(via_edge[v]);
    path.nodes.push_back(v);
  }
  path.nodes.push_back(src);
  std::reverse(path.edges.begin(), path.edges.end());
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

/// Yen's algorithm over reference_dijkstra, with no pruning at all.
std::vector<Path> reference_yen(const Graph& g, CostModel model,
                                std::uint32_t src, std::uint32_t dst,
                                std::size_t k,
                                const std::vector<std::size_t>& excluded) {
  std::vector<double> w(g.num_edges());
  for (std::size_t e = 0; e < w.size(); ++e) {
    w[e] = reference_weight(g.params(e), model);
  }
  std::vector<bool> excluded_set(g.num_edges(), false);
  for (const std::size_t e : excluded) excluded_set[e] = true;
  std::vector<Path> found;
  if (k == 0) return found;
  auto first = reference_dijkstra(
      g, w, src, dst, std::vector<bool>(g.num_nodes(), false), excluded_set);
  if (!first) return found;
  found.push_back(std::move(*first));
  const auto path_less = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  };
  std::vector<Path> candidates;
  while (found.size() < k) {
    const Path& prev = found.back();
    for (std::size_t i = 0; i < prev.edges.size(); ++i) {
      std::vector<bool> banned_nodes(g.num_nodes(), false);
      std::vector<bool> banned_edges = excluded_set;
      for (std::size_t j = 0; j < i; ++j) banned_nodes[prev.nodes[j]] = true;
      for (const Path& p : found) {
        if (p.edges.size() > i &&
            std::equal(p.nodes.begin(), p.nodes.begin() + i + 1,
                       prev.nodes.begin())) {
          banned_edges[p.edges[i]] = true;
        }
      }
      const auto spur = reference_dijkstra(g, w, prev.nodes[i], dst,
                                           banned_nodes, banned_edges);
      if (!spur) continue;
      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i);
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      total.nodes.insert(total.nodes.end(), spur->nodes.begin(),
                         spur->nodes.end());
      total.edges.insert(total.edges.end(), spur->edges.begin(),
                         spur->edges.end());
      total.cost = spur->cost;
      for (std::size_t j = 0; j < i; ++j) total.cost += w[prev.edges[j]];
      const auto dup = [&](const Path& p) { return p.edges == total.edges; };
      if (std::none_of(found.begin(), found.end(), dup) &&
          std::none_of(candidates.begin(), candidates.end(), dup)) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    const auto best =
        std::min_element(candidates.begin(), candidates.end(), path_less);
    found.push_back(std::move(*best));
    candidates.erase(best);
  }
  return found;
}

/// One of five topology families, sized for a fast reference search.
Graph random_graph(std::mt19937_64& rng, std::size_t family) {
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  switch (family) {
    case 0:
      return Graph::grid(pick(2, 6), pick(2, 6));
    case 1:
      return Graph::ring(pick(3, 12));
    case 2:
      return Graph::torus(pick(3, 5), pick(3, 5));
    case 3:
      return Graph::dragonfly(pick(2, 5), pick(1, 4));
    default: {  // G(n, p)
      Graph g(pick(5, 36));
      const double p = std::uniform_real_distribution<>(0.08, 0.4)(rng);
      std::bernoulli_distribution coin(p);
      for (std::uint32_t a = 0; a < g.num_nodes(); ++a) {
        for (std::uint32_t b = a + 1; b < g.num_nodes(); ++b) {
          if (coin(rng)) g.add_edge(a, b);
        }
      }
      return g;
    }
  }
}

/// Either a few discrete values full of ties — fidelity 1.0 (weight
/// 0), floored fidelities, zero pair time plus zero delay — or
/// continuous values whose sums round differently by summation order.
void randomize_params(std::mt19937_64& rng, Graph& g, bool ties) {
  std::uniform_real_distribution<> unit(0.0, 1.0);
  const auto choose = [&](std::initializer_list<double> values) {
    return values.begin()[std::uniform_int_distribution<std::size_t>(
        0, values.size() - 1)(rng)];
  };
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EdgeParams& p = g.params(e);
    if (ties) {
      p.fidelity = choose({1.0, 0.9, 0.8, 0.2});
      p.pair_time_s = choose({0.0, 1e-3, 2e-3});
      p.delay_s = choose({0.0, 0.0, 1e-3});
    } else {
      p.fidelity = 0.3 + 0.7 * unit(rng);
      p.pair_time_s = 5e-3 * unit(rng);
      p.delay_s = 1e-3 * unit(rng);
    }
  }
}

TEST(PathSelector, MatchesReferenceYenOnRandomGraphs) {
  std::mt19937_64 rng(20191);
  std::size_t queries = 0;
  std::size_t multi_path = 0;  // queries returning >= 2 paths
  for (std::size_t round = 0; round < 250; ++round) {
    Graph g = random_graph(rng, round % 5);
    randomize_params(rng, g, round % 2 == 0);
    for (const CostModel model :
         {CostModel::kHopCount, CostModel::kFidelity, CostModel::kLatency}) {
      // One selector serves every query on the graph, as in a Router.
      const PathSelector sel(g, model);
      for (int q = 0; q < 8; ++q) {
        std::uniform_int_distribution<std::uint32_t> node(
            0, static_cast<std::uint32_t>(g.num_nodes() - 1));
        const std::uint32_t src = node(rng);
        std::uint32_t dst = node(rng);
        if (dst == src) dst = (src + 1) % g.num_nodes();
        const std::size_t k =
            std::uniform_int_distribution<std::size_t>(1, 6)(rng);
        std::vector<std::size_t> excluded;
        if (g.num_edges() > 0 && rng() % 2 == 0) {
          std::uniform_int_distribution<std::size_t> edge(
              0, g.num_edges() - 1);
          for (std::size_t n = rng() % 4; n > 0; --n) {
            excluded.push_back(edge(rng));
          }
        }
        SCOPED_TRACE(::testing::Message()
                     << "round " << round << " model "
                     << cost_model_name(model) << " " << src << "->" << dst
                     << " k=" << k << " excluded=" << excluded.size());
        const auto want = reference_yen(g, model, src, dst, k, excluded);
        const auto got = sel.k_shortest(src, dst, k, excluded);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          SCOPED_TRACE(::testing::Message() << "path " << i);
          ASSERT_EQ(got[i].edges, want[i].edges);
          ASSERT_EQ(got[i].nodes, want[i].nodes);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].cost),
                    std::bit_cast<std::uint64_t>(want[i].cost));
        }
        if (excluded.empty()) {
          const auto first = sel.shortest(src, dst);
          ASSERT_EQ(first.has_value(), !want.empty());
          if (first) {
            ASSERT_EQ(first->edges, want.front().edges);
          }
        }
        ++queries;
        if (got.size() >= 2) ++multi_path;
      }
    }
  }
  EXPECT_EQ(queries, 250u * 3u * 8u);
  EXPECT_GT(multi_path, queries / 2);  // the spur searches were exercised
}

TEST(ReservationTable, EdgeDisjointAdmission) {
  const Graph grid = Graph::grid(3, 3);
  ReservationTable table(grid);
  const PathSelector sel(grid, CostModel::kHopCount);

  const auto top = sel.shortest(0, 2);      // row 0
  const auto bottom = sel.shortest(6, 8);   // row 2
  ASSERT_TRUE(top && bottom);
  const auto t1 = table.try_reserve(top->edges);
  ASSERT_TRUE(t1.has_value());
  // Same edges again: at capacity.
  EXPECT_FALSE(table.can_reserve(top->edges));
  EXPECT_FALSE(table.try_reserve(top->edges).has_value());
  // Disjoint path: fine.
  const auto t2 = table.try_reserve(bottom->edges);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(table.active(), 2u);
  EXPECT_EQ(table.max_active(), 2u);

  table.release(*t1);
  EXPECT_TRUE(table.can_reserve(top->edges));
  EXPECT_EQ(table.active(), 1u);
  EXPECT_EQ(table.max_active(), 2u);
  EXPECT_THROW(table.release(*t1), std::invalid_argument);  // double free
}

TEST(ReservationTable, CapacityAboveOneAdmitsConcurrency) {
  EdgeParams wide;
  wide.capacity = 2;
  const Graph chain = Graph::chain(3, wide);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  const auto t1 = table.try_reserve(path);
  const auto t2 = table.try_reserve(path);
  ASSERT_TRUE(t1 && t2);
  EXPECT_EQ(table.in_use(0), 2u);
  EXPECT_FALSE(table.try_reserve(path).has_value());
  table.release(*t2);
  EXPECT_TRUE(table.try_reserve(path).has_value());
}

TEST(ReservationTable, RejectsNonSimplePaths) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> looped{0, 0, 1};
  EXPECT_THROW(table.try_reserve(looped), std::invalid_argument);
  EXPECT_THROW(table.try_reserve(std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_EQ(table.in_use(0), 0u);  // nothing was partially reserved
}

TEST(ReservationTable, TimeSlicedLeasesAdmitDisjointWindows) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};

  // A lease for [0, 100): the edges are busy inside the window ...
  const auto first = table.try_reserve(path, /*now=*/0, /*duration=*/100);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(table.can_reserve(path, 50));
  EXPECT_FALSE(table.try_reserve(path, 99, 100).has_value());
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());
  // ... and free at its end even though the holder has not released:
  // a second request sharing the edges at a disjoint time admits.
  EXPECT_TRUE(table.can_reserve(path, 100));
  const auto second = table.try_reserve(path, /*now=*/100, /*duration=*/50);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(table.active(), 2u);  // both tickets still held
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());

  // Overrunning holders still release cleanly (their lapsed lease
  // entries are simply gone), and nothing double-frees.
  EXPECT_EQ(table.expire_until(120), 2u);  // first's two edge leases
  EXPECT_EQ(table.lease_expiries(), 2u);
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());
  table.release(*first);
  table.release(*second);
  EXPECT_EQ(table.active(), 0u);
  EXPECT_EQ(table.in_use(0), 0u);
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());
  EXPECT_FALSE(table.next_expiry().has_value());
  EXPECT_THROW(table.try_reserve(path, 0, 0), std::invalid_argument);
}

TEST(ReservationTable, FutureWindowBookingsBlockOverlappingAdmissions) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  const std::vector<std::size_t> edge0{0};

  const auto held = table.try_reserve(path, /*now=*/0, /*duration=*/100);
  ASSERT_TRUE(held.has_value());
  // The earliest whole-window slot behind a [0, 100) lease is its end.
  EXPECT_EQ(table.earliest_window(path, 0, 50),
            std::optional<sim::SimTime>(100));
  const auto booked = table.reserve_at(path, 100, 50);
  ASSERT_TRUE(booked.has_value());
  EXPECT_EQ(table.in_use(0), 2u);
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());

  // An instant admission whose window overlaps the booking is refused;
  // one fitting the gap after it admits.
  EXPECT_FALSE(table.try_reserve(edge0, 120, 50).has_value());
  EXPECT_FALSE(table.can_reserve(edge0, 120, 50));
  EXPECT_TRUE(table.can_reserve(edge0, 150, 50));
  // The next free whole-window slot is behind the booking...
  EXPECT_EQ(table.earliest_window(edge0, 0, 50),
            std::optional<sim::SimTime>(150));
  // ...but a shorter window still fits the gap in front of nothing: a
  // booking starting at the lease end leaves no gap on this edge, so
  // the earliest 1-tick slot after `now`=100 is also 150.
  EXPECT_EQ(table.earliest_window(edge0, 100, 1),
            std::optional<sim::SimTime>(150));

  // Unbounded pins never free a window.
  const auto pin = table.try_reserve(edge0, 150);
  ASSERT_TRUE(pin.has_value());
  EXPECT_FALSE(table.earliest_window(edge0, 150, 10).has_value());
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());

  table.release(*held);
  table.release(*booked);
  table.release(*pin);
  EXPECT_EQ(table.next_expiry(), table.next_expiry_scan());
  EXPECT_THROW(table.reserve_at(path, -1, 10), std::invalid_argument);
}

TEST(ReservationTable, GreedyDrainCountsQueueJumps) {
  // C (older, wants edges {0, 1}) blocks on edge 1; D (younger, wants
  // {0}) admits the freed edge 0 under the greedy policy — a counted
  // queue jump, and a batch admission past the blocked elder.
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const auto hold0 = table.try_reserve(std::vector<std::size_t>{0}, 0, 50);
  const auto hold1 = table.try_reserve(std::vector<std::size_t>{1}, 0, 100);
  ASSERT_TRUE(hold0 && hold1);

  std::vector<char> admitted;
  const auto want = [&table, &admitted](char name,
                                        std::vector<std::size_t> edges) {
    table.enqueue_blocked(
        [&table, &admitted, edges, name] {
          const auto t = table.try_reserve(edges, 50, 1000);
          if (!t) return false;
          admitted.push_back(name);
          return true;
        },
        edges);
  };
  want('C', {0, 1});
  want('D', {0});

  EXPECT_EQ(table.expire_until(50), 1u);  // edge 0 frees; edge 1 busy
  EXPECT_EQ(admitted, (std::vector<char>{'D'}));
  EXPECT_EQ(table.steals(), 1u);
  EXPECT_EQ(table.batch_admits(), 1u);
  EXPECT_EQ(table.hol_holds(), 0u);
  EXPECT_EQ(table.blocked(), 1u);  // C still parked
}

TEST(ReservationTable, PerEdgeFifoDrainHoldsConflictsAdmitsDisjoint) {
  // Same shape under the batch policy, plus a disjoint E: D is held
  // back (it shares edge 0 with the still-blocked elder C), while E
  // (edge 2, disjoint) admits in the same wakeup.
  const Graph chain = Graph::chain(4);
  ReservationTable table(chain);
  table.set_drain_policy(DrainPolicy::kPerEdgeFifo);
  const auto hold0 = table.try_reserve(std::vector<std::size_t>{0}, 0, 50);
  const auto hold1 = table.try_reserve(std::vector<std::size_t>{1}, 0, 100);
  const auto hold2 = table.try_reserve(std::vector<std::size_t>{2}, 0, 50);
  ASSERT_TRUE(hold0 && hold1 && hold2);

  std::vector<char> admitted;
  ReservationTable::Ticket got_c = 0;
  const auto want = [&table, &admitted, &got_c](
                        char name, std::vector<std::size_t> edges) {
    table.enqueue_blocked(
        [&table, &admitted, &got_c, edges, name] {
          const auto t = table.try_reserve(edges, 50, 1000);
          if (!t) return false;
          admitted.push_back(name);
          if (name == 'C') got_c = *t;
          return true;
        },
        edges);
  };
  want('C', {0, 1});
  want('D', {0});
  want('E', {2});

  EXPECT_EQ(table.expire_until(50), 2u);  // edges 0 and 2 free
  // D was withheld (conflict with C); E admitted batch-style.
  EXPECT_EQ(admitted, (std::vector<char>{'E'}));
  EXPECT_EQ(table.hol_holds(), 1u);
  EXPECT_EQ(table.steals(), 0u);
  EXPECT_EQ(table.batch_admits(), 1u);
  EXPECT_EQ(table.blocked(), 2u);

  // When edge 1 frees, FIFO within the conflicting set resumes: C
  // admits first, D queues behind C's fresh lease on edge 0.
  table.release(*hold1);
  EXPECT_EQ(admitted, (std::vector<char>{'E', 'C'}));
  EXPECT_EQ(table.blocked(), 1u);
  table.release(got_c);
  EXPECT_EQ(admitted, (std::vector<char>{'E', 'C', 'D'}));
  EXPECT_EQ(table.blocked(), 0u);
}

TEST(ReservationTable, FreshReservationOverBlockedFootprintCountsSteal) {
  const Graph chain = Graph::chain(4);
  ReservationTable table(chain);
  const auto hold1 = table.try_reserve(std::vector<std::size_t>{1});
  ASSERT_TRUE(hold1.has_value());
  table.enqueue_blocked([] { return false; },
                        std::vector<std::size_t>{0, 1});
  // A fresh out-of-queue admission touching the blocked footprint is a
  // queue jump; a disjoint one is not.
  const auto jump = table.try_reserve(std::vector<std::size_t>{0});
  ASSERT_TRUE(jump.has_value());
  EXPECT_EQ(table.steals(), 1u);
  const auto clean = table.try_reserve(std::vector<std::size_t>{2});
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(table.steals(), 1u);
  // Booked future windows are scheduler promises, not jumps.
  table.release(*jump);
  const auto booked = table.reserve_at(std::vector<std::size_t>{0}, 10, 10);
  ASSERT_TRUE(booked.has_value());
  EXPECT_EQ(table.steals(), 1u);
}

TEST(ReservationTable, ExpiryRetriesBlockedQueue) {
  const Graph chain = Graph::chain(2);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0};
  const auto held = table.try_reserve(path, 0, 100);
  ASSERT_TRUE(held.has_value());
  ASSERT_EQ(table.next_expiry(), std::optional<sim::SimTime>(100));

  int admitted = 0;
  table.enqueue_blocked([&table, &admitted, path] {
    const auto t = table.try_reserve(path, 100, 100);
    if (!t) return false;
    ++admitted;
    return true;
  });
  EXPECT_EQ(admitted, 0);
  // The lease lapse alone — no release — wakes the blocked request.
  EXPECT_EQ(table.expire_until(100), 1u);
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(table.blocked(), 0u);
  EXPECT_EQ(table.next_expiry(), std::optional<sim::SimTime>(200));
  table.release(*held);  // lapsed but still held: release is fine
}

TEST(ReservationTable, BlockedRetryOrderSurvivesMixedWakeups) {
  // Regression: the old pop-front/push-back rotation left the queue
  // mid-rotation when a retry threw, so a later request could jump an
  // earlier one across mixed release/expiry wakeups. Pin the FIFO
  // order: A (wants edge 0), B (throws once), C (wants edge 0) must
  // admit as A-then-C no matter how the wakeups interleave.
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> edge0{0};
  const std::vector<std::size_t> edge1{1};
  const auto hold0 = table.try_reserve(edge0, 0, 100);   // lapses at 100
  const auto hold1 = table.try_reserve(edge1);           // pinned
  ASSERT_TRUE(hold0 && hold1);

  std::vector<char> admitted;
  sim::SimTime now = 0;
  const auto want_edge0 = [&table, &admitted, &now, edge0](char name) {
    return [&table, &admitted, &now, edge0, name] {
      const auto t = table.try_reserve(edge0, now, 1000);
      if (!t) return false;
      admitted.push_back(name);
      return true;
    };
  };
  bool threw = false;
  table.enqueue_blocked(want_edge0('A'));
  table.enqueue_blocked([&threw]() -> bool {
    if (!threw) {
      threw = true;
      throw std::runtime_error("poisoned retry");
    }
    return true;  // leaves the queue if ever retried again
  });
  table.enqueue_blocked(want_edge0('C'));

  // Wakeup 1 is a *release* (edge 1): A retries first but edge 0 is
  // still leased, B throws. C must stay behind A.
  EXPECT_THROW(table.release(*hold1), std::runtime_error);
  EXPECT_TRUE(admitted.empty());
  EXPECT_EQ(table.blocked(), 2u);

  // Wakeup 2 is a *lease expiry* (edge 0 lapses at t = 100): exactly
  // the older request A admits; C queues behind A's fresh lease.
  now = 100;
  EXPECT_EQ(table.expire_until(100), 1u);
  EXPECT_EQ(admitted, (std::vector<char>{'A'}));
  EXPECT_EQ(table.blocked(), 1u);

  // Wakeup 3, expiry again (A's lease ends at 1100): C's turn.
  now = 1100;
  table.expire_until(1100);
  EXPECT_EQ(admitted, (std::vector<char>{'A', 'C'}));
  EXPECT_EQ(table.blocked(), 0u);
}

TEST(ReservationTable, BlockedRequestsRetryOnRelease) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  auto held = table.try_reserve(path);
  ASSERT_TRUE(held.has_value());

  // Two blocked requests in FIFO order; both want the same path, so
  // one release admits exactly the first.
  std::vector<int> admitted;
  ReservationTable::Ticket got = 0;
  for (int id : {1, 2}) {
    table.enqueue_blocked([&table, &admitted, &got, path, id] {
      const auto t = table.try_reserve(path);
      if (!t) return false;
      admitted.push_back(id);
      got = *t;
      return true;
    });
  }
  EXPECT_EQ(table.blocked(), 2u);
  EXPECT_TRUE(admitted.empty());  // nothing retries until a release

  table.release(*held);
  ASSERT_EQ(admitted, (std::vector<int>{1}));
  EXPECT_EQ(table.blocked(), 1u);

  table.release(got);
  EXPECT_EQ(admitted, (std::vector<int>{1, 2}));
  EXPECT_EQ(table.blocked(), 0u);
}

}  // namespace
}  // namespace qlink::routing
