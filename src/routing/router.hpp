#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "metrics/collector.hpp"
#include "netlayer/plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/trace.hpp"
#include "routing/graph.hpp"
#include "routing/path_selector.hpp"
#include "routing/reservation.hpp"
#include "sim/simulator.hpp"

/// \file router.hpp
/// The glue that turns graph + path selection + reservations into a
/// running network: a Router owns the Graph's annotated view of a
/// netlayer::EntanglementPlane (edge i == link i, verified on
/// construction) and admits end-to-end requests onto reserved routed
/// paths of that plane — the full-detail SwapService or the flow-level
/// FlowPlane, interchangeably.
///
/// Admission: the k cheapest candidate paths under the configured cost
/// model are tried in order; the first whose edges all have spare
/// reservation capacity *now* is leased (see ReservationTable — a lease
/// window sized by lease_slack, or an unbounded pin) and handed to the
/// SwapService (with per-hop CREATE floors from EdgeParams::link_floor).
/// A request that fits no candidate queues FIFO in the ReservationTable
/// and is retried whenever any reservation releases or any lease
/// lapses. Reservations release when the request delivers its last pair
/// or fails terminally.
///
/// Adaptive re-routing (max_reroutes > 0): when an admitted request
/// fails, the failing edge joins the request's exclusion set, the
/// surviving candidates (the Yen list minus excluded edges) are retried
/// in order — recomputed over the exclusion set once they run dry — and
/// the request is resubmitted, up to the budget. The error handler sees
/// terminal failures only; absorbed hop failures surface in
/// Stats::rerouted and metrics::Collector::reroutes. Exclusions last
/// for the request's lifetime.
///
/// Scheduled admission (scheduled_admission): a request that fits no
/// candidate *now* books the earliest future window in which one
/// candidate's edges are all free (ReservationTable::earliest_window /
/// reserve_at) and the Router schedules its submission at that start —
/// instead of parking the request blind in the blocked queue. Requests
/// that cannot book a finite window (an edge pinned forever) still
/// queue, and the blocked queue drains under the per-edge-FIFO batch
/// policy (see reservation.hpp).

namespace qlink::routing {

/// netlayer edge-list config for a graph: link i joins edge i's nodes.
/// The caller still picks the per-link template / seed / configure_link
/// hook on the returned config.
netlayer::NetworkConfig make_network_config(
    const Graph& graph, const core::LinkConfig& link_template,
    std::uint64_t seed);

struct RouterConfig {
  CostModel cost = CostModel::kHopCount;
  /// Candidate paths per request (k of k-shortest).
  std::size_t k_candidates = 4;
  /// Re-routing budget per request: after a hop failure the failing
  /// edge is excluded and the request resubmitted over a sibling
  /// candidate, at most this many times. 0 = static routing (every
  /// failure is terminal — the historical behavior). Pinned submit_on
  /// requests never re-route.
  std::size_t max_reroutes = 0;
  /// Time-sliced reservations: each admission leases its edges for
  /// lease_slack x num_pairs x (slowest hop's expected pair time)
  /// instead of pinning them for the whole request lifetime, so a
  /// blocked request sharing an edge at a disjoint time admits on lease
  /// expiry without waiting for the holder's release. <= 0 = unbounded
  /// leases (whole-request pinning, the historical behavior).
  double lease_slack = 0.0;
  /// Book a future lease window for requests that fit nothing now and
  /// schedule their submission at the window start, and drain the
  /// blocked queue per-edge FIFO: a younger blocked request never jumps
  /// an older one on a shared edge, while requests with disjoint
  /// footprints admit in the same wakeup (see file comment). false =
  /// queue blind and drain greedily (jumps allowed, counted as steals).
  bool scheduled_admission = false;
  /// Cache Yen candidate lists per (src, dst), invalidated whenever
  /// annotate_from_network rewrites the edge parameters. The selector
  /// is deterministic, so a cache hit returns byte-identical
  /// candidates — this cannot change a trajectory, only skip
  /// recomputation. Streaming workloads over big topologies
  /// (bench_workload_scale) switch it on.
  bool cache_paths = false;
};

class Router {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    /// Admissions (a re-routed request is admitted again; resubmissions
    /// do not count toward `submitted`).
    std::uint64_t admitted = 0;
    /// Requests that queued behind reservations at initial submission
    /// (a re-routed request re-queueing is not counted again).
    std::uint64_t blocked = 0;
    /// Deferred-admission bookings: submissions (initial or re-route)
    /// that fit nothing now and booked a future lease window instead of
    /// queueing blind.
    std::uint64_t deferred = 0;
    /// Total booked wait (sim time) across `deferred`: the gap between
    /// the deferral and the booked window start.
    sim::SimTime deferred_wait_total = 0;
    /// Always 0: every request that fits nothing is deferred or
    /// queued. Kept because snapshots and benches report it.
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    /// Terminal failures (with re-routing enabled, failures that could
    /// not be absorbed).
    std::uint64_t failed = 0;
    /// Hop failures absorbed by resubmitting over a sibling path,
    /// counted when the resubmission is (re-)admitted — equal to
    /// metrics::Collector::reroutes when the SwapService shares the
    /// Router's collector (reroutes is recorded by the SwapService's).
    std::uint64_t rerouted = 0;
    /// Re-routable requests that still failed: budget or sibling
    /// candidates exhausted.
    std::uint64_t abandoned = 0;
    std::uint64_t pairs_delivered = 0;
  };

  /// Takes over the plane's deliver/error handlers (route the higher
  /// layer's handlers through the Router instead). Throws
  /// std::invalid_argument when graph and plane disagree (edge/link
  /// count, node count, or any edge's endpoints).
  Router(Graph graph, netlayer::EntanglementPlane& plane,
         const RouterConfig& config = {},
         metrics::Collector* collector = nullptr);
  ~Router();

  // selector_ references graph_ (a copy's selector would keep reading
  // the source Router's graph), and the SwapService handlers capture
  // `this`.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Fill every edge's planning parameters from its link's FEU: the
  /// edge is operated at the first feasible floor of `floor_menu`
  /// (descending quality set-points, e.g. {0.85, 0.775, 0.7, 0.625});
  /// fidelity/pair-time estimates and the classical delay follow from
  /// that choice. Edges feasible at no menu entry keep link_floor 0 and
  /// advertise fidelity 0.25 (no entanglement — the fidelity cost model
  /// then avoids them whenever an alternative exists).
  void annotate_from_network(std::span<const double> floor_menu);

  /// Submit an end-to-end request. Returns the SwapService request id
  /// when admitted immediately, 0 when deferred or queued. Throws std::invalid_argument when the graph offers no
  /// src -> dst path at all.
  std::uint32_t submit(const netlayer::E2eRequest& request);

  /// Submit pinned to one explicit path (no candidate search, no
  /// re-routing): reserved and admitted, or queued for that same path.
  /// The path must join the request's endpoints.
  std::uint32_t submit_on(const netlayer::E2eRequest& request,
                          const Path& path);

  /// Attach a lifecycle tracer (null to detach). The Router stamps
  /// E2eRequest::trace_id at submission (kept across re-routing
  /// resubmissions) and emits the request-lane spans: the request
  /// envelope, its admission wait, its deferral windows, and
  /// submit / reroute / abandon / failure instants. Recording only —
  /// attaching a tracer cannot perturb the trajectory. Attach the same
  /// tracer to the SwapService for the per-hop spans.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attach a per-edge accounting substrate (null to detach): the
  /// Router forwards it to its ReservationTable (lease windows, blocked
  /// footprints) and SwapService (attempts, swaps, deliveries), and
  /// reports admission waits and request-level blocks itself. Recording
  /// only — attaching cannot perturb the trajectory.
  void set_edge_stats(metrics::EdgeStats* stats) noexcept;

  void set_deliver_handler(netlayer::SwapService::DeliverFn fn) {
    on_deliver_ = std::move(fn);
  }
  /// Sees terminal failures only: a hop failure absorbed by re-routing
  /// is not reported here (see Stats::rerouted).
  void set_error_handler(netlayer::SwapService::ErrorFn fn) {
    on_error_ = std::move(fn);
  }

  /// Read-only: edge params change only through annotate_from_network,
  /// which also reweights the selector (a direct edit would leave it
  /// searching on stale weights).
  const Graph& graph() const noexcept { return graph_; }
  const PathSelector& selector() const noexcept { return selector_; }
  const ReservationTable& reservations() const noexcept {
    return reservations_;
  }
  const Stats& stats() const noexcept { return stats_; }
  /// Deferred bookings whose window start has not arrived yet.
  std::size_t deferred_pending() const noexcept {
    return deferred_events_.size();
  }
  /// The entanglement plane this router admits onto.
  netlayer::EntanglementPlane& plane() noexcept { return plane_; }
  /// The engine shard the router schedules on — resolved through the
  /// plane's handle at construction, so a router bound to an island of
  /// a sharded run stays wholly on that island's shard.
  sim::EngineRef engine_ref() const noexcept { return engine_ref_; }
  /// The full-detail network behind the plane, or nullptr on a plane
  /// without one (the flow-level fast path).
  netlayer::QuantumNetwork* network() noexcept { return plane_.network(); }

  /// A selector path as SwapService hops / per-hop CREATE floors.
  std::vector<netlayer::Hop> to_hops(const Path& path) const;
  std::vector<double> hop_floors(const Path& path) const;

  /// Lease window for admitting `request` on `path` (kNoExpiry when
  /// lease_slack <= 0): the estimated occupancy from the annotated
  /// per-hop pair times, times the slack.
  sim::SimTime lease_duration(const Path& path,
                              const netlayer::E2eRequest& request) const;

 private:
  /// Everything needed to re-route an in-flight request: its remaining
  /// work, the surviving candidates, and the edges it must now avoid.
  struct FlightState {
    ReservationTable::Ticket ticket = 0;
    netlayer::E2eRequest request;
    std::vector<Path> candidates;
    std::vector<std::size_t> excluded;
    std::size_t reroutes_used = 0;
    std::uint16_t delivered = 0;
    /// false for pinned submit_on requests: re-routing would betray
    /// the pin.
    bool reroutable = true;
    /// Wait booked by a deferred admission (seconds between the
    /// deferral and the booked window start), attributed to the
    /// request's deferral phase once its SwapService id exists.
    double booked_wait_s = 0.0;
  };

  /// Yen candidates for submit(): served from the (src, dst) cache when
  /// cache_paths is on and the annotations have not changed since the
  /// entry was computed.
  std::vector<Path> candidates_for(std::uint32_t src, std::uint32_t dst);
  std::uint32_t submit_flight(FlightState flight);
  /// Reserve + admit over the first fitting candidate; returns the
  /// plane's request id, 0 when nothing fits. On success `flight` has
  /// been moved into in_flight_.
  std::uint32_t try_admit(FlightState& flight);
  /// The one admission path, for an immediate fit (try_admit) and a
  /// booked window opening (try_defer) alike: hand `flight`, whose
  /// ticket already reserves `path`, to the plane; count it; record its
  /// admission wait, route length, booked deferral and trace span; and
  /// move it into in_flight_. Releases the ticket and rethrows when the
  /// plane rejects the route.
  std::uint32_t admit(FlightState& flight, const Path& path);
  /// Scheduled admission: book the candidate with the earliest feasible
  /// future window and admit at its start. False when scheduled
  /// admission is off or no candidate has a finite window.
  bool try_defer(FlightState& flight);
  /// Queue `flight` in the reservation table's blocked queue with its
  /// preferred candidate's edges as the drain footprint.
  void enqueue_flight(FlightState flight);
  /// Forward the reservation table's contention counters (steals /
  /// per-edge-FIFO holds) to the collector as they grow.
  void sync_contention_metrics();
  /// Close the request's trace lane with its envelope span
  /// (submitted_at -> now, outcome in the args).
  void trace_terminal(const FlightState& flight, const char* outcome);
  /// Admit, defer or queue a re-routed flight (a resubmission is not
  /// counted as blocked again).
  void requeue_reroute(FlightState flight);
  void on_deliver(const netlayer::E2eOk& ok);
  void on_error(const netlayer::E2eErr& err);
  /// Keep a wakeup scheduled at the reservation table's next lease
  /// expiry while anything is blocked, so expiry retries fire without
  /// a release.
  void schedule_expiry_wakeup();

  Graph graph_;
  netlayer::EntanglementPlane& plane_;
  sim::EngineRef engine_ref_;
  sim::Simulator& sim_;
  RouterConfig config_;
  metrics::Collector* collector_;
  obs::Tracer* tracer_ = nullptr;
  metrics::EdgeStats* edge_stats_ = nullptr;
  PathSelector selector_;
  ReservationTable reservations_;
  /// (src, dst) -> Yen candidates (cache_paths only). Cleared whenever
  /// annotate_from_network rewrites edge costs.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Path>>
      path_cache_;
  /// SwapService request id -> its flight (reservation + reroute
  /// state).
  std::map<std::uint32_t, FlightState> in_flight_;
  /// Pending deferred-submission events (cancelled on destruction —
  /// their closures capture `this`).
  std::set<sim::EventId> deferred_events_;
  /// Table counters already forwarded to the collector.
  std::uint64_t steals_seen_ = 0;
  std::uint64_t hol_holds_seen_ = 0;
  std::optional<sim::EventId> expiry_event_;
  sim::SimTime expiry_at_ = 0;
  netlayer::SwapService::DeliverFn on_deliver_;
  netlayer::SwapService::ErrorFn on_error_;
  Stats stats_;
};

}  // namespace qlink::routing
