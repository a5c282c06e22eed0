#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "routing/router.hpp"
#include "workload/workload.hpp"

namespace qlink::netlayer {
namespace {

NetworkConfig lab_config(const routing::Graph& graph, std::uint64_t seed) {
  NetworkConfig c =
      routing::make_network_config(graph, core::LinkConfig{}, seed);
  c.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory (see examples/chain_e2e_nl.cpp):
  // pairs wait for the slowest hop.
  c.link.scenario.nv.carbon_t2_ns = 0.5e9;
  c.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  return c;
}

/// Nodes 0..links, link i between nodes i and i + 1.
NetworkConfig chain_config(std::size_t links, std::uint64_t seed) {
  return lab_config(routing::Graph::chain(links + 1), seed);
}

/// Center node 0, leaf i + 1 on link i's A side.
NetworkConfig star_config(std::size_t leaves, std::uint64_t seed) {
  return lab_config(routing::Graph::star(leaves), seed);
}

TEST(Topology, ChainNodesAndEndpoints) {
  QuantumNetwork net(chain_config(3, 1));
  EXPECT_EQ(net.num_links(), 3u);
  EXPECT_EQ(net.num_nodes(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto [a, b] = net.endpoints(i);
    EXPECT_EQ(a, i);
    EXPECT_EQ(b, i + 1);
  }
}

TEST(Topology, ChainPathIsOrderedAndOriented) {
  QuantumNetwork net(chain_config(3, 1));
  const auto forward = net.path(0, 3);
  ASSERT_EQ(forward.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(forward[i].link, i);
    EXPECT_FALSE(forward[i].reversed);
  }
  const auto backward = net.path(3, 1);
  ASSERT_EQ(backward.size(), 2u);
  EXPECT_EQ(backward[0].link, 2u);
  EXPECT_TRUE(backward[0].reversed);
  EXPECT_EQ(backward[1].link, 1u);
  EXPECT_TRUE(backward[1].reversed);
  EXPECT_THROW(net.path(0, 0), std::invalid_argument);
  EXPECT_THROW(net.path(0, 7), std::invalid_argument);
}

TEST(Topology, StarNodesAndEndpoints) {
  QuantumNetwork net(star_config(3, 1));
  EXPECT_EQ(net.num_links(), 3u);
  EXPECT_EQ(net.num_nodes(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto [a, b] = net.endpoints(i);
    EXPECT_EQ(a, i + 1);  // leaf on the A side
    EXPECT_EQ(b, 0u);     // center on the B side
  }
}

TEST(Topology, StarRoutesThroughCenter) {
  QuantumNetwork net(star_config(3, 1));
  EXPECT_EQ(net.num_nodes(), 4u);  // center 0, leaves 1..3
  const auto leaf_to_leaf = net.path(1, 3);
  ASSERT_EQ(leaf_to_leaf.size(), 2u);
  EXPECT_EQ(leaf_to_leaf[0].link, 0u);
  EXPECT_FALSE(leaf_to_leaf[0].reversed);  // leaf 1 -> center
  EXPECT_EQ(leaf_to_leaf[1].link, 2u);
  EXPECT_TRUE(leaf_to_leaf[1].reversed);  // center -> leaf 3
  const auto to_center = net.path(2, 0);
  ASSERT_EQ(to_center.size(), 1u);
  EXPECT_EQ(to_center[0].link, 1u);
  EXPECT_FALSE(to_center[0].reversed);
}

/// Malformed explicit edge lists must be rejected loudly (no links,
/// self-loops, duplicate links, unknown node ids), not silently
/// mis-route.
TEST(Topology, RejectsAnEmptyEdgeList) {
  NetworkConfig c = chain_config(2, 1);
  c.edges.clear();
  EXPECT_THROW(QuantumNetwork net(c), std::invalid_argument);
}

TEST(Topology, RejectsSelfLoops) {
  NetworkConfig c = chain_config(2, 1);
  c.edges = {{0, 1}, {1, 1}};
  EXPECT_THROW(QuantumNetwork net(c), std::invalid_argument);
}

TEST(Topology, RejectsDuplicateLinks) {
  NetworkConfig c = chain_config(2, 1);
  c.edges = {{0, 1}, {1, 2}, {2, 1}};  // either orientation duplicates
  EXPECT_THROW(QuantumNetwork net(c), std::invalid_argument);
}

TEST(Topology, RejectsUnknownNodeIds) {
  NetworkConfig c = chain_config(2, 1);
  c.edges = {{0, 1}, {1, 5}};
  c.num_nodes = 3;  // id 5 does not exist
  EXPECT_THROW(QuantumNetwork net(c), std::invalid_argument);
}

/// An explicit edge list builds a working general topology: a 4-ring
/// has two routes between opposite corners, and BFS picks a 2-hop one.
TEST(Topology, EdgeListBuildsGeneralGraphs) {
  NetworkConfig c = chain_config(2, 1);
  c.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  c.num_nodes = 0;  // inferred: max listed id + 1
  QuantumNetwork net(c);
  EXPECT_EQ(net.num_links(), 4u);
  EXPECT_EQ(net.num_nodes(), 4u);
  const auto route = net.path(0, 2);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(net.hop_entry(route.front()), 0u);
  EXPECT_EQ(net.hop_exit(route.back()), 2u);
}

/// The per-link hook customises heterogeneous networks but must not be
/// able to re-wire the topology.
TEST(Topology, ConfigureLinkHookKeepsEndpoints) {
  NetworkConfig c = chain_config(2, 1);
  c.edges = {{0, 1}, {1, 2}};
  c.configure_link = [](std::size_t i, core::LinkConfig& lc) {
    lc.node_id_a = 99;  // ignored
    lc.node_id_b = 98;
    if (i == 1) lc.scenario.herald.visibility = 0.5;
  };
  QuantumNetwork net(c);
  EXPECT_EQ(net.endpoints(0), (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(net.endpoints(1), (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
  EXPECT_NEAR(net.link(1).scenario().herald.visibility, 0.5, 1e-12);
  EXPECT_NEAR(net.link(0).scenario().herald.visibility, 0.9, 1e-12);
}

/// The issue's acceptance test: a 3-node chain (two links, one swap at
/// the middle node) delivers an end-to-end entangled pair whose
/// fidelity beats the request's min_fidelity.
TEST(SwapService, ThreeNodeChainDeliversEndToEndPair) {
  QuantumNetwork net(chain_config(2, 11));
  metrics::Collector collector;
  SwapService swap(net, &collector);

  std::vector<E2eOk> delivered;
  swap.set_deliver_handler([&](const E2eOk& ok) { delivered.push_back(ok); });

  E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.num_pairs = 1;
  req.min_fidelity = 0.5;
  req.link_min_fidelity = 0.8;
  net.start();
  swap.request(req);

  for (int i = 0; i < 400000 && delivered.empty(); ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  ASSERT_EQ(delivered.size(), 1u);
  const E2eOk& ok = delivered.front();
  EXPECT_EQ(ok.src, 0u);
  EXPECT_EQ(ok.dst, 2u);
  EXPECT_EQ(ok.swaps, 1);
  EXPECT_NE(ok.qubit_src, ok.qubit_dst);
  // One swap of two >= 0.8 pairs: comfortably above the witness bound
  // and the request's floor.
  EXPECT_GT(ok.fidelity, req.min_fidelity);

  // Metrics flowed through the collector under the NL kind.
  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  EXPECT_EQ(nl.pairs_delivered, 1u);
  EXPECT_EQ(nl.requests_completed, 1u);
  EXPECT_NEAR(nl.fidelity.mean(), ok.fidelity, 1e-12);

  EXPECT_EQ(swap.stats().swaps, 1u);
  EXPECT_EQ(swap.stats().link_pairs_consumed, 2u);
  EXPECT_EQ(swap.open_requests(), 0u);

  swap.release(ok);
}

/// Swapping also works across a star: the reversed-hop orientation at
/// the center node must be handled.
TEST(SwapService, StarLeafToLeafDelivers) {
  QuantumNetwork net(star_config(2, 5));
  SwapService swap(net);

  std::vector<E2eOk> delivered;
  swap.set_deliver_handler([&](const E2eOk& ok) { delivered.push_back(ok); });

  E2eRequest req;
  req.src = 1;  // leaf
  req.dst = 2;  // other leaf, via center 0
  req.link_min_fidelity = 0.8;
  net.start();
  swap.request(req);

  for (int i = 0; i < 400000 && delivered.empty(); ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.front().swaps, 1);
  EXPECT_GT(delivered.front().fidelity, 0.5);
  swap.release(delivered.front());
}

/// Everything observable about a delivery, flattened for bytewise
/// comparison between runs.
struct DeliveryRecord {
  std::uint32_t request_id;
  std::uint32_t seq_src;
  std::uint32_t seq_dst;
  std::uint64_t qubit_src;
  std::uint64_t qubit_dst;
  std::int64_t deliver_time;
  double fidelity;
};

std::vector<DeliveryRecord> run_chain_once(std::uint64_t seed) {
  QuantumNetwork net(chain_config(2, seed));
  SwapService swap(net);
  std::vector<DeliveryRecord> records;
  swap.set_deliver_handler([&](const E2eOk& ok) {
    records.push_back(DeliveryRecord{
        ok.request_id, ok.ok_src.ent_id.seq_mhp, ok.ok_dst.ent_id.seq_mhp,
        ok.qubit_src, ok.qubit_dst, ok.deliver_time, ok.fidelity});
    swap.release(ok);
  });

  E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.num_pairs = 3;
  req.link_min_fidelity = 0.75;
  net.start();
  swap.request(req);
  for (int i = 0; i < 800000 && records.size() < 3; ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  return records;
}

/// Field-by-field serialization (no struct padding) so the comparison
/// below really is byte-identical.
std::vector<std::uint8_t> to_bytes(const std::vector<DeliveryRecord>& rs) {
  std::vector<std::uint8_t> bytes;
  auto put = [&bytes](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  for (const DeliveryRecord& r : rs) {
    put(r.request_id);
    put(r.seq_src);
    put(r.seq_dst);
    put(r.qubit_src);
    put(r.qubit_dst);
    put(r.deliver_time);
    put(r.fidelity);
  }
  return bytes;
}

/// Determinism must survive the shared-simulator refactor: two runs
/// with the same seed produce byte-identical delivery sequences.
TEST(SwapService, SameSeedGivesByteIdenticalDeliveries) {
  const auto first = run_chain_once(77);
  const auto second = run_chain_once(77);
  ASSERT_GE(first.size(), 1u);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(to_bytes(first), to_bytes(second))
      << "identically seeded runs must replay byte-identically";

  const auto other_seed = run_chain_once(78);
  ASSERT_GE(other_seed.size(), 1u);
  EXPECT_NE(to_bytes(first), to_bytes(other_seed))
      << "different seeds should not replay the same delivery stream";
}

// ---------------------------------------------------------------------------
// Routed paths: SwapService consuming routes chosen by the routing layer.

/// Clifford+Pauli scenario (cf. test_backend_equivalence.cpp): pure
/// dephasing decay and Bell-diagonal installs, so dense and
/// Bell-diagonal backends agree to float rounding.
NetworkConfig ring6_config(qstate::BackendKind backend, std::uint64_t seed) {
  NetworkConfig c;
  c.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}};
  c.seed = seed;
  c.link.backend = backend;
  c.link.pauli_twirl_installs = true;
  c.link.scenario = hw::ScenarioParams::lab();
  c.link.scenario.nv.electron_t1_ns = -1.0;
  c.link.scenario.nv.carbon_t2_ns = 0.5e9;
  c.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  return c;
}

/// The 5-hop way around the ring from 0 to 5 (the router's second
/// candidate; BFS would take the direct 5-0 edge), as SwapService hops.
std::vector<Hop> ring6_long_way(const QuantumNetwork& net) {
  routing::Graph ring = routing::Graph::ring(6);
  const routing::PathSelector sel(ring, routing::CostModel::kHopCount);
  const auto paths = sel.k_shortest(0, 5, 2);
  EXPECT_EQ(paths.size(), 2u);
  const routing::Path& longer = paths[1];
  EXPECT_EQ(longer.hops(), 5u);
  std::vector<Hop> route;
  for (std::size_t i = 0; i < longer.edges.size(); ++i) {
    const auto [a, b] = net.endpoints(longer.edges[i]);
    (void)b;
    route.push_back(Hop{longer.edges[i], longer.nodes[i] != a});
  }
  return route;
}

struct RoutedRun {
  std::vector<DeliveryRecord> records;
  int swaps = 0;
};

RoutedRun run_ring_long_way(qstate::BackendKind backend,
                            std::uint64_t seed) {
  QuantumNetwork net(ring6_config(backend, seed));
  SwapService swap(net);
  RoutedRun out;
  swap.set_deliver_handler([&](const E2eOk& ok) {
    out.records.push_back(DeliveryRecord{
        ok.request_id, ok.ok_src.ent_id.seq_mhp, ok.ok_dst.ent_id.seq_mhp,
        ok.qubit_src, ok.qubit_dst, ok.deliver_time, ok.fidelity});
    out.swaps = ok.swaps;
    swap.release(ok);
  });

  E2eRequest req;
  req.src = 0;
  req.dst = 5;
  req.link_min_fidelity = 0.8;
  net.start();
  swap.request(req, ring6_long_way(net));
  for (int i = 0; i < 1600000 && out.records.empty(); ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  return out;
}

/// Satellite check: SwapService over a router-chosen 5-hop path is
/// byte-identical per seed and agrees between backends to 1e-6.
TEST(SwapService, RoutedFiveHopPathDeterministicAcrossRuns) {
  const auto first = run_ring_long_way(qstate::BackendKind::kDense, 31);
  const auto second = run_ring_long_way(qstate::BackendKind::kDense, 31);
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_EQ(first.swaps, 4);  // 5 hops -> 4 intermediate swaps
  EXPECT_EQ(to_bytes(first.records), to_bytes(second.records));
  EXPECT_GT(first.records.front().fidelity, 0.25);
}

TEST(SwapService, RoutedFiveHopPathBackendsAgree) {
  const auto dense = run_ring_long_way(qstate::BackendKind::kDense, 31);
  const auto bell =
      run_ring_long_way(qstate::BackendKind::kBellDiagonal, 31);
  ASSERT_EQ(dense.records.size(), 1u);
  ASSERT_EQ(bell.records.size(), 1u);
  EXPECT_EQ(bell.swaps, 4);
  // Same seed, same Random consumption, Clifford+Pauli physics: the
  // closed-form swap cascade must match the dense circuit within float
  // accumulation error.
  EXPECT_EQ(dense.records.front().deliver_time,
            bell.records.front().deliver_time);
  EXPECT_NEAR(dense.records.front().fidelity,
              bell.records.front().fidelity, 1e-6);
}

/// Route validation: garbage routes are rejected before any CREATE, by
/// the full-detail and the flow-level plane alike.
enum class PlaneKind { kSwap, kFlow };

const char* plane_name(PlaneKind kind) {
  return kind == PlaneKind::kSwap ? "SwapService" : "FlowPlane";
}

/// ctest's discovered names print the parameter: the plane's name, not
/// the enum's raw bytes.
void PrintTo(PlaneKind kind, std::ostream* os) { *os << plane_name(kind); }

class PlaneRoutes : public ::testing::TestWithParam<PlaneKind> {};

TEST_P(PlaneRoutes, RejectsMalformedRoutes) {
  // Both planes span the chain 0 - 1 - 2 - 3.
  QuantumNetwork net(chain_config(3, 1));
  SwapService swap(net);
  FlowPlaneConfig fc;
  fc.edges = {{0, 1}, {1, 2}, {2, 3}};
  FlowPlane flow(std::move(fc));
  const bool full = GetParam() == PlaneKind::kSwap;
  EntanglementPlane& plane = full ? static_cast<EntanglementPlane&>(swap)
                                  : static_cast<EntanglementPlane&>(flow);
  E2eRequest req;
  req.src = 0;
  req.dst = 3;
  EXPECT_THROW(plane.submit(req, {}), std::invalid_argument);
  // Not contiguous: skips link 1.
  EXPECT_THROW(plane.submit(req, {Hop{0, false}, Hop{2, false}}),
               std::invalid_argument);
  // Wrong endpoints.
  EXPECT_THROW(plane.submit(req, {Hop{1, false}, Hop{2, false}}),
               std::invalid_argument);
  // Unknown link.
  EXPECT_THROW(plane.submit(req, {Hop{7, false}}), std::invalid_argument);
  // A walk that revisits a node (here: 0 -> 1 -> 0 -> 1 -> ... is
  // caught at its first revisit) would double-book a physical link.
  EXPECT_THROW(
      plane.submit(req, {Hop{0, false}, Hop{0, true}, Hop{0, false},
                         Hop{1, false}, Hop{2, false}}),
      std::invalid_argument);
  // One floor per hop, or none.
  const double floors[] = {0.7, 0.7};
  EXPECT_THROW(plane.submit(req, net.path(0, 3), floors),
               std::invalid_argument);
  // src == dst is meaningless end-to-end entanglement.
  E2eRequest self = req;
  self.dst = 0;
  EXPECT_THROW(plane.submit(self, {Hop{0, false}, Hop{0, true}}),
               std::invalid_argument);
  EXPECT_EQ(full ? swap.stats().requests : flow.stats().requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothPlanes, PlaneRoutes,
                         ::testing::Values(PlaneKind::kSwap, PlaneKind::kFlow),
                         [](const auto& info) {
                           return std::string(plane_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Router integration: reservations gate admission on the live network.

TEST(Router, AdmitsDisjointPathsAndRetriesBlocked) {
  routing::Graph grid = routing::Graph::grid(3, 3);
  NetworkConfig nc = routing::make_network_config(
      grid, core::LinkConfig{}, /*seed=*/9);
  nc.link.backend = qstate::BackendKind::kBellDiagonal;
  nc.link.pauli_twirl_installs = true;
  nc.link.scenario = hw::ScenarioParams::lab();
  nc.link.scenario.nv.carbon_t2_ns = 0.5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  QuantumNetwork net(nc);
  SwapService swap(net);
  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kFidelity;
  rc.k_candidates = 4;
  metrics::Collector collector;
  routing::Router router(grid, swap, rc, &collector);
  const double menu[] = {0.8};
  router.annotate_from_network(menu);

  std::vector<E2eOk> delivered;
  router.set_deliver_handler([&](const E2eOk& ok) {
    delivered.push_back(ok);
    swap.release(ok);
  });

  E2eRequest top, bottom;
  top.src = 0;
  top.dst = 2;
  bottom.src = 6;
  bottom.dst = 8;
  net.start();
  EXPECT_NE(router.submit(top), 0u);
  EXPECT_NE(router.submit(bottom), 0u);  // edge-disjoint: admitted
  // Same endpoints again: with k=4 candidates on a 3x3 grid there is
  // still a reservable detour (0-3-4-5-2), so this admits too ...
  EXPECT_NE(router.submit(top), 0u);
  EXPECT_EQ(router.stats().admitted, 3u);
  EXPECT_EQ(router.reservations().max_active(), 3u);
  // ... but a fourth 0->2 request exhausts every candidate and queues.
  EXPECT_EQ(router.submit(top), 0u);
  EXPECT_EQ(router.stats().blocked, 1u);
  EXPECT_EQ(router.reservations().blocked(), 1u);
  EXPECT_EQ(collector.requests_blocked(), 1u);

  for (int i = 0; i < 1600000 && delivered.size() < 4; ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(router.stats().completed, 4u);
  EXPECT_EQ(router.reservations().active(), 0u);
  EXPECT_EQ(router.reservations().blocked(), 0u);
  EXPECT_EQ(swap.open_requests(), 0u);
  EXPECT_EQ(collector.route_length().count(), 4u);
  for (const E2eOk& ok : delivered) {
    // 2-hop corridors sit near 0.6; the 4-hop detours land around 0.38
    // (Werner composition 0.736^4 ~ 0.47 minus waiting decoherence).
    EXPECT_GT(ok.fidelity, ok.swaps == 1 ? 0.5 : 0.3);
    // Every request was submitted at t = 0, so latency counts from
    // there — including the one that waited in the blocked queue.
    EXPECT_EQ(ok.submit_time, 0);
  }
}

/// A malformed pinned path must not leak its reservation: submit_on
/// checks endpoints, the SwapService rejects the non-contiguous walk,
/// and the edges it briefly pinned are free again.
TEST(Router, MalformedPinnedPathDoesNotLeakReservations) {
  routing::Graph chain = routing::Graph::chain(4);
  NetworkConfig nc =
      routing::make_network_config(chain, core::LinkConfig{}, 3);
  nc.link.scenario = hw::ScenarioParams::lab();
  QuantumNetwork net(nc);
  SwapService swap(net);
  routing::Router router(chain, swap);

  routing::Path gap;  // skips the middle edge: not a contiguous walk
  gap.edges = {0, 2};
  gap.nodes = {0, 1, 3};
  E2eRequest req;
  req.src = 0;
  req.dst = 3;
  EXPECT_THROW(router.submit_on(req, gap), std::invalid_argument);
  EXPECT_EQ(router.reservations().active(), 0u);
  EXPECT_EQ(router.reservations().in_use(0), 0u);
  EXPECT_EQ(router.reservations().in_use(2), 0u);

  // The edges still admit a well-formed request.
  const auto full = routing::PathSelector(router.graph()).shortest(0, 3);
  ASSERT_TRUE(full.has_value());
  EXPECT_NE(router.submit_on(req, *full), 0u);
}

/// Routed workload mode: random multi-pair traffic over a graph, every
/// request admitted through the router's reservation table.
TEST(Router, DrivesRandomTrafficOverGrid) {
  routing::Graph grid = routing::Graph::grid(2, 2);
  NetworkConfig nc = routing::make_network_config(
      grid, core::LinkConfig{}, /*seed=*/21);
  nc.link.backend = qstate::BackendKind::kBellDiagonal;
  nc.link.pauli_twirl_installs = true;
  nc.link.scenario = hw::ScenarioParams::lab();
  nc.link.scenario.nv.carbon_t2_ns = 0.5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  QuantumNetwork net(nc);
  metrics::Collector collector;
  SwapService swap(net, &collector);
  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kHopCount;
  routing::Router router(grid, swap, rc, &collector);
  const double menu[] = {0.75};
  router.annotate_from_network(menu);

  workload::WorkloadConfig wl;
  wl.nl = {0.9, 2};
  wl.origin = workload::OriginMode::kRandom;
  wl.min_fidelity = 0.5;
  wl.seed = 21;
  auto driver_ptr = workload::WorkloadDriver::for_routed(
      router, wl.traffic(), wl.tuning(), collector);
  workload::WorkloadDriver& driver = *driver_ptr;

  net.start();
  driver.start();
  net.run_for(sim::duration::seconds(3.0));
  driver.stop();

  EXPECT_GT(driver.requests_issued(), 0u);
  EXPECT_GT(driver.pairs_matched(), 0u);
  EXPECT_EQ(router.stats().submitted, driver.requests_issued());
  EXPECT_EQ(router.stats().pairs_delivered, driver.pairs_matched());
  EXPECT_GT(collector.route_length().count(), 0u);
  EXPECT_GE(collector.route_length().mean(), 1.0);
  // Admissions either completed, failed, or are still in flight.
  EXPECT_LE(router.stats().completed + router.stats().failed,
            router.stats().admitted);
}

/// Links sleep and wake: one request on a 3x3 grid, a pause in which
/// every link goes idle, then three more (one over the links that
/// slept after the first). The delivery times and the Collector's
/// counts are pinned to what the simulator produced when every MHP
/// polled on a timer of its own each cycle, so a change in the order
/// of same-instant events between links (for example, re-arming each
/// sleeping MHP's own timer) fails here.
TEST(Router, GridSleepWakeReplaysPinnedTrajectory) {
  routing::Graph grid = routing::Graph::grid(3, 3);
  NetworkConfig nc = routing::make_network_config(
      grid, core::LinkConfig{}, /*seed=*/13);
  nc.link.backend = qstate::BackendKind::kBellDiagonal;
  nc.link.pauli_twirl_installs = true;
  nc.link.scenario = hw::ScenarioParams::lab();
  nc.link.scenario.nv.carbon_t2_ns = 0.5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  QuantumNetwork net(nc);
  metrics::Collector collector;
  SwapService swap(net, &collector);
  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kHopCount;
  routing::Router router(grid, swap, rc, &collector);
  const double menu[] = {0.75};
  router.annotate_from_network(menu);

  std::vector<E2eOk> delivered;
  router.set_deliver_handler([&](const E2eOk& ok) {
    delivered.push_back(ok);
    swap.release(ok);
  });
  const auto request = [](std::uint32_t src, std::uint32_t dst) {
    E2eRequest req;
    req.src = src;
    req.dst = dst;
    req.link_min_fidelity = 0.75;
    return req;
  };
  const auto run_until_delivered = [&](std::size_t n) {
    for (int i = 0; i < 1600000 && delivered.size() < n; ++i) {
      net.run_for(sim::duration::microseconds(100));
    }
  };

  net.start();
  ASSERT_NE(router.submit(request(0, 2)), 0u);
  run_until_delivered(1);
  ASSERT_EQ(delivered.size(), 1u);
  net.run_for(sim::duration::milliseconds(5));
  for (std::size_t i = 0; i < net.num_links(); ++i) {
    EXPECT_TRUE(net.link(i).mhp_a().dormant()) << "link " << i;
    EXPECT_TRUE(net.link(i).mhp_b().dormant()) << "link " << i;
  }
  ASSERT_NE(router.submit(request(0, 6)), 0u);
  ASSERT_NE(router.submit(request(2, 8)), 0u);
  ASSERT_NE(router.submit(request(0, 2)), 0u);
  run_until_delivered(4);
  ASSERT_EQ(delivered.size(), 4u);

  std::vector<std::tuple<std::uint32_t, sim::SimTime, int>> got;
  double fidelity_sum = 0.0;
  for (const E2eOk& ok : delivered) {
    got.emplace_back(ok.request_id, ok.deliver_time, ok.swaps);
    fidelity_sum += ok.fidelity;
  }
  const metrics::Collector::KindMetrics& nl =
      collector.kind(core::Priority::kNetworkLayer);
  const std::vector<std::tuple<std::uint32_t, sim::SimTime, int>> pinned = {
      {1, 93559416, 1},
      {4, 131317136, 1},
      {3, 215464936, 1},
      {2, 335123816, 1}};
  EXPECT_EQ(got, pinned);
  EXPECT_EQ(nl.pairs_delivered, 4u);
  EXPECT_EQ(nl.pair_latency_s.count(), 4u);
  EXPECT_NEAR(nl.pair_latency_s.mean(), 0.119916326, 1e-12);
  EXPECT_NEAR(fidelity_sum, 2.1161642431855356, 1e-9);
  EXPECT_NEAR(nl.fidelity.min(), 0.45594121896275419, 1e-9);
  EXPECT_NEAR(nl.fidelity.max(), 0.57215224583604352, 1e-9);
}

}  // namespace
}  // namespace qlink::netlayer
