#include "routing/router.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/edge_stats.hpp"

namespace qlink::routing {

netlayer::NetworkConfig make_network_config(
    const Graph& graph, const core::LinkConfig& link_template,
    std::uint64_t seed) {
  netlayer::NetworkConfig config;
  config.link = link_template;
  config.seed = seed;
  config.num_nodes = graph.num_nodes();
  config.edges.reserve(graph.num_edges());
  for (const Graph::Edge& e : graph.edges()) {
    config.edges.emplace_back(e.a, e.b);
  }
  return config;
}

Router::Router(Graph graph, netlayer::EntanglementPlane& plane,
               const RouterConfig& config, metrics::Collector* collector)
    : graph_(std::move(graph)),
      plane_(plane),
      engine_ref_(plane.engine_ref()),
      sim_(engine_ref_.sim()),
      config_(config),
      collector_(collector),
      selector_(graph_, config.cost),
      reservations_(graph_) {
  if (graph_.num_edges() != plane_.num_links() ||
      graph_.num_nodes() != plane_.num_nodes()) {
    throw std::invalid_argument("Router: graph and plane disagree on size");
  }
  for (std::size_t i = 0; i < graph_.num_edges(); ++i) {
    const Graph::Edge& e = graph_.edge(i);
    const auto [a, b] = plane_.endpoints(i);
    const bool match = (e.a == a && e.b == b) || (e.a == b && e.b == a);
    if (!match) {
      throw std::invalid_argument("Router: edge " + std::to_string(i) +
                                  " does not match link " +
                                  std::to_string(i) + "'s endpoints");
    }
  }
  if (config_.k_candidates == 0) {
    throw std::invalid_argument("Router: k_candidates must be positive");
  }
  reservations_.set_drain_policy(config_.scheduled_admission
                                     ? DrainPolicy::kPerEdgeFifo
                                     : DrainPolicy::kGreedy);
  plane_.set_deliver_handler(
      [this](const netlayer::E2eOk& ok) { on_deliver(ok); });
  plane_.set_error_handler(
      [this](const netlayer::E2eErr& err) { on_error(err); });
}

void Router::set_edge_stats(metrics::EdgeStats* stats) noexcept {
  edge_stats_ = stats;
  reservations_.set_edge_stats(stats);
  plane_.set_edge_stats(stats);
}

Router::~Router() {
  // Pending lease-expiry and deferred-submission events capture `this`.
  if (expiry_event_) sim_.cancel(*expiry_event_);
  for (const sim::EventId id : deferred_events_) {
    sim_.cancel(id);
  }
}

void Router::annotate_from_network(std::span<const double> floor_menu) {
  if (floor_menu.empty()) {
    throw std::invalid_argument("Router: empty floor menu");
  }
  for (std::size_t i = 0; i < graph_.num_edges(); ++i) {
    EdgeParams& params = graph_.params(i);
    params.delay_s = plane_.link_delay_s(i);
    params.link_floor = 0.0;
    params.fidelity = 0.25;  // separable: the fidelity model shuns it
    params.pair_time_s = 1.0;
    for (const double floor : floor_menu) {
      const auto estimate = plane_.estimate_link(i, floor);
      if (estimate.feasible) {
        params.link_floor = floor;
        params.fidelity = estimate.fidelity;
        params.pair_time_s = estimate.pair_time_s;
        break;
      }
    }
  }
  selector_.reweight();
  path_cache_.clear();  // costs changed: cached candidates are stale
}

std::vector<netlayer::Hop> Router::to_hops(const Path& path) const {
  std::vector<netlayer::Hop> hops;
  hops.reserve(path.edges.size());
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    const std::size_t link = path.edges[i];
    const auto [a, b] = plane_.endpoints(link);
    (void)b;
    hops.push_back(netlayer::Hop{link, path.nodes[i] != a});
  }
  return hops;
}

std::vector<double> Router::hop_floors(const Path& path) const {
  std::vector<double> floors;
  floors.reserve(path.edges.size());
  for (const std::size_t e : path.edges) {
    floors.push_back(graph_.params(e).link_floor);
  }
  return floors;
}

sim::SimTime Router::lease_duration(
    const Path& path, const netlayer::E2eRequest& request) const {
  if (config_.lease_slack <= 0.0) return ReservationTable::kNoExpiry;
  double slowest = 0.0;
  for (const std::size_t e : path.edges) {
    slowest = std::max(slowest, graph_.params(e).pair_time_s);
  }
  const double window_s =
      config_.lease_slack * slowest *
      static_cast<double>(std::max<std::uint16_t>(request.num_pairs, 1));
  return std::max<sim::SimTime>(sim::duration::seconds(window_s), 1);
}

std::uint32_t Router::try_admit(FlightState& flight) {
  const sim::SimTime now = sim_.now();
  for (const Path& path : flight.candidates) {
    const auto ticket = reservations_.try_reserve(
        path.edges, now, lease_duration(path, flight.request));
    if (!ticket) continue;
    flight.ticket = *ticket;
    const std::uint32_t id = admit(flight, path);
    sync_contention_metrics();
    return id;
  }
  sync_contention_metrics();
  return 0;
}

std::uint32_t Router::admit(FlightState& flight, const Path& path) {
  const sim::SimTime now = sim_.now();
  std::uint32_t id = 0;
  try {
    id = plane_.submit(flight.request, to_hops(path), hop_floors(path));
  } catch (...) {
    // A malformed pinned path (submit_on checks only the endpoints)
    // must not leak its reservation and wedge the edges forever.
    reservations_.release(flight.ticket, now);
    throw;
  }
  ++stats_.admitted;
  // Count the reroute only here, where the resubmission actually
  // reached the plane (record_resubmit fired inside submit), so
  // Stats::rerouted and Collector::reroutes always agree.
  if (flight.request.resubmission_of != 0) ++stats_.rerouted;
  const bool first = flight.request.resubmission_of == 0 &&
                     flight.request.submitted_at >= 0;
  if (first) {
    // Admission wait covers submit -> first admission (0 for an
    // instant admit, the queueing or booked time otherwise);
    // resubmissions keep their original latency accounting instead.
    const double wait_s = sim::to_seconds(now - flight.request.submitted_at);
    if (collector_) {
      collector_->record_admission_wait(wait_s, flight.request.src, id);
    }
    if (edge_stats_) edge_stats_->on_admission_wait(path.edges, wait_s);
  }
  if (collector_) {
    collector_->record_route(path.hops());
    if (flight.booked_wait_s > 0.0) {
      collector_->attribute_deferral(flight.request.src, id,
                                     flight.booked_wait_s);
    }
  }
  // Attributed; a later re-route that defers again must not re-count it.
  flight.booked_wait_s = 0.0;
  if (tracer_ && first && now > flight.request.submitted_at) {
    tracer_->complete(flight.request.trace_id, "router", "admission_wait",
                      flight.request.submitted_at, now);
  }
  in_flight_.emplace(id, std::move(flight));
  schedule_expiry_wakeup();
  return id;
}

bool Router::try_defer(FlightState& flight) {
  if (!config_.scheduled_admission) return false;
  const sim::SimTime now = sim_.now();
  // Book the candidate whose window opens first; ties keep candidate
  // (cost) order.
  const Path* best = nullptr;
  sim::SimTime best_start = 0;
  sim::SimTime best_duration = 0;
  for (const Path& path : flight.candidates) {
    const sim::SimTime duration = lease_duration(path, flight.request);
    const auto start =
        reservations_.earliest_window(path.edges, now, duration);
    if (!start) continue;
    if (best == nullptr || *start < best_start) {
      best = &path;
      best_start = *start;
      best_duration = duration;
    }
  }
  if (best == nullptr) return false;  // every candidate pinned shut
  const auto ticket =
      reservations_.reserve_at(best->edges, best_start, best_duration);
  if (!ticket) return false;  // cannot happen: same-event recompute
  flight.ticket = *ticket;
  ++stats_.deferred;
  stats_.deferred_wait_total += best_start - now;
  // The plane's request id does not exist yet; remember the booked wait
  // so admit can attribute it to the request's deferral phase.
  flight.booked_wait_s += sim::to_seconds(best_start - now);
  if (collector_) {
    collector_->record_deferral(sim::to_seconds(best_start - now));
  }
  if (tracer_) {
    // The booked window is known now, so the span can be emitted
    // eagerly even though it ends in the (simulated) future.
    tracer_->complete(flight.request.trace_id, "router", "deferral_window",
                      now, best_start);
  }
  // The booked path must survive until the window opens; candidates
  // live in the flight, so remember it by value in the closure. The
  // closure learns its own event id through the shared holder so it can
  // retire itself from deferred_events_ when it fires (the destructor
  // must not cancel an already-fired event).
  auto id_holder = std::make_shared<sim::EventId>(0);
  const sim::EventId id = sim_.schedule_at(
      best_start,
      [this, id_holder, flight = std::move(flight), path = *best]() mutable {
        deferred_events_.erase(*id_holder);
        admit(flight, path);
      },
      "router.deferred");
  *id_holder = id;
  deferred_events_.insert(id);
  return true;
}

std::vector<Path> Router::candidates_for(std::uint32_t src,
                                         std::uint32_t dst) {
  if (!config_.cache_paths) {
    return selector_.k_shortest(src, dst, config_.k_candidates);
  }
  const auto key = std::make_pair(src, dst);
  const auto it = path_cache_.find(key);
  if (it != path_cache_.end()) return it->second;
  std::vector<Path> candidates =
      selector_.k_shortest(src, dst, config_.k_candidates);
  path_cache_.emplace(key, candidates);
  return candidates;
}

std::uint32_t Router::submit(const netlayer::E2eRequest& request) {
  std::vector<Path> candidates = candidates_for(request.src, request.dst);
  if (candidates.empty()) {
    throw std::invalid_argument("Router: no path between nodes " +
                                std::to_string(request.src) + " and " +
                                std::to_string(request.dst));
  }
  FlightState flight;
  flight.request = request;
  flight.candidates = std::move(candidates);
  return submit_flight(std::move(flight));
}

std::uint32_t Router::submit_on(const netlayer::E2eRequest& request,
                                const Path& path) {
  // Validate the full walk now: a malformed path could otherwise sit in
  // the blocked queue and only throw later, from inside the simulator
  // event that releases a reservation. Shape first — src()/dst() read
  // nodes.front()/back().
  if (path.edges.empty() || path.nodes.size() != path.edges.size() + 1) {
    throw std::invalid_argument("Router: pinned path nodes/edges mismatch");
  }
  if (path.src() != request.src || path.dst() != request.dst) {
    throw std::invalid_argument(
        "Router: pinned path does not join the request's endpoints");
  }
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    if (path.edges[i] >= graph_.num_edges() ||
        graph_.find_edge(path.nodes[i], path.nodes[i + 1]) !=
            path.edges[i]) {
      throw std::invalid_argument(
          "Router: pinned path is not a walk over graph edges");
    }
  }
  for (std::size_t i = 0; i < path.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < path.nodes.size(); ++j) {
      if (path.nodes[i] == path.nodes[j]) {
        throw std::invalid_argument("Router: pinned path revisits node " +
                                    std::to_string(path.nodes[i]));
      }
    }
  }
  FlightState flight;
  flight.request = request;
  flight.candidates = {path};
  flight.reroutable = false;
  return submit_flight(std::move(flight));
}

std::uint32_t Router::submit_flight(FlightState flight) {
  // Latency is measured from here: time a request spends queued behind
  // reservations is part of its service time.
  if (flight.request.submitted_at < 0) {
    flight.request.submitted_at = sim_.now();
  }
  if (tracer_) {
    if (flight.request.trace_id == 0) {
      flight.request.trace_id = tracer_->new_trace();
    }
    tracer_->instant(
        flight.request.trace_id, "router", "submit",
        sim_.now(),
        {obs::Tracer::num_arg(
             "src", static_cast<std::uint64_t>(flight.request.src)),
         obs::Tracer::num_arg(
             "dst", static_cast<std::uint64_t>(flight.request.dst)),
         obs::Tracer::num_arg(
             "pairs",
             static_cast<std::uint64_t>(flight.request.num_pairs))});
  }
  // try_admit may throw on a malformed pinned path; count the request
  // only once it is known to be admitted, deferred or queued, so
  // submitted == admitted-first-try + deferred-first-try + blocked
  // stays an invariant (a deferred request joins `admitted` later, when
  // its booked window opens).
  const std::uint32_t id = try_admit(flight);
  ++stats_.submitted;
  if (id != 0) {
    return id;
  }
  if (try_defer(flight)) {
    return 0;  // booked: the submission fires at the window start
  }
  ++stats_.blocked;
  if (collector_) collector_->record_blocked();
  if (edge_stats_) edge_stats_->on_blocked_request();
  enqueue_flight(std::move(flight));
  return 0;
}

void Router::enqueue_flight(FlightState flight) {
  // The preferred candidate's edges are the drain footprint: what this
  // request is (approximately) waiting for, for per-edge FIFO ordering
  // and steal accounting.
  std::vector<std::size_t> footprint =
      flight.candidates.empty() ? std::vector<std::size_t>{}
                                : flight.candidates.front().edges;
  reservations_.enqueue_blocked(
      [this, flight = std::move(flight)]() mutable {
        return try_admit(flight) != 0;
      },
      std::move(footprint));
  schedule_expiry_wakeup();
}

void Router::sync_contention_metrics() {
  if (collector_ == nullptr) return;
  for (; steals_seen_ < reservations_.steals(); ++steals_seen_) {
    collector_->record_steal();
  }
  for (; hol_holds_seen_ < reservations_.hol_holds(); ++hol_holds_seen_) {
    collector_->record_hol_hold();
  }
}

void Router::trace_terminal(const FlightState& flight, const char* outcome) {
  if (tracer_ == nullptr || flight.request.submitted_at < 0) return;
  tracer_->complete(
      flight.request.trace_id, "request", "request",
      flight.request.submitted_at, sim_.now(),
      {obs::Tracer::str_arg("outcome", outcome),
       obs::Tracer::num_arg(
           "src", static_cast<std::uint64_t>(flight.request.src)),
       obs::Tracer::num_arg(
           "dst", static_cast<std::uint64_t>(flight.request.dst)),
       obs::Tracer::num_arg(
           "reroutes", static_cast<std::uint64_t>(flight.reroutes_used))});
}

void Router::requeue_reroute(FlightState flight) {
  if (try_admit(flight) != 0) return;
  if (try_defer(flight)) return;
  // Not counted in Stats::blocked / record_blocked: those count
  // *requests* that ever queued, and this one already counted at
  // submission if it did.
  enqueue_flight(std::move(flight));
}

void Router::schedule_expiry_wakeup() {
  if (reservations_.blocked() == 0) return;
  const auto next = reservations_.next_expiry();
  if (!next) return;  // only unbounded pins: releases drive retries
  // Always wake from a fresh simulator event — never prune (and so
  // drain the blocked queue) synchronously here, which could reenter
  // try_admit from inside a submit already in progress. A lease that
  // lapsed in the past wakes "now", i.e. right after the current event.
  const sim::SimTime at = std::max(*next, sim_.now());
  if (expiry_event_ && expiry_at_ <= at) return;
  if (expiry_event_) sim_.cancel(*expiry_event_);
  expiry_at_ = at;
  expiry_event_ = sim_.schedule_at(
      at,
      [this] {
        expiry_event_.reset();
        // Prunes every lease lapsed by now and retries the blocked
        // queue; anything still blocked gets the next wakeup.
        reservations_.expire_until(sim_.now());
        sync_contention_metrics();
        schedule_expiry_wakeup();
      },
      "router.expiry");
}

void Router::on_deliver(const netlayer::E2eOk& ok) {
  ++stats_.pairs_delivered;
  const auto flight = in_flight_.find(ok.request_id);
  if (flight != in_flight_.end()) ++flight->second.delivered;
  if (on_deliver_) {
    on_deliver_(ok);
  } else {
    // Same policy as an unhandled SwapService delivery: a pair nobody
    // consumes must not pin device memory forever.
    plane_.release(ok);
  }
  if (ok.pair_index + 1 == ok.total_pairs) {
    ++stats_.completed;
    const auto it = in_flight_.find(ok.request_id);
    if (it != in_flight_.end()) {
      trace_terminal(it->second, "completed");
      const ReservationTable::Ticket ticket = it->second.ticket;
      in_flight_.erase(it);
      // May reentrantly admit blocked requests (fresh SwapService
      // CREATEs fire from inside this delivery).
      reservations_.release(ticket, sim_.now());
      sync_contention_metrics();
      schedule_expiry_wakeup();
    }
  }
}

void Router::on_error(const netlayer::E2eErr& err) {
  const auto it = in_flight_.find(err.request_id);
  if (it == in_flight_.end()) {
    // Not one of ours (or already completed): report and move on.
    ++stats_.failed;
    if (on_error_) on_error_(err);
    return;
  }
  FlightState flight = std::move(it->second);
  in_flight_.erase(it);
  // May reentrantly admit blocked requests; the failed request's own
  // resubmission (below) queues behind them — it already had service.
  reservations_.release(flight.ticket, sim_.now());
  sync_contention_metrics();
  schedule_expiry_wakeup();

  if (flight.reroutable && flight.reroutes_used < config_.max_reroutes) {
    // The failing edge joins the request's exclusion set for the rest of
    // its lifetime; surviving candidates (Yen already yielded k) are
    // preferred, and the search only re-runs over the exclusion set once
    // they run dry.
    flight.excluded.push_back(err.link);
    std::erase_if(flight.candidates, [&err](const Path& path) {
      return std::find(path.edges.begin(), path.edges.end(), err.link) !=
             path.edges.end();
    });
    if (flight.candidates.empty()) {
      flight.candidates =
          selector_.k_shortest(flight.request.src, flight.request.dst,
                               config_.k_candidates, flight.excluded);
    }
    if (!flight.candidates.empty()) {
      ++flight.reroutes_used;
      // Resume with the remaining pairs; metrics carry the original
      // submission time through resubmission_of.
      flight.request.resubmission_of = err.request_id;
      flight.request.num_pairs = static_cast<std::uint16_t>(
          flight.request.num_pairs - flight.delivered);
      flight.delivered = 0;
      if (tracer_) {
        tracer_->instant(
            flight.request.trace_id, "router", "reroute", sim_.now(),
            {obs::Tracer::num_arg("failed_link",
                                  static_cast<std::uint64_t>(err.link)),
             obs::Tracer::num_arg(
                 "attempt",
                 static_cast<std::uint64_t>(flight.reroutes_used))});
      }
      requeue_reroute(std::move(flight));
      return;
    }
  }

  ++stats_.failed;
  const bool abandoned = flight.reroutable && config_.max_reroutes > 0;
  if (abandoned) {
    ++stats_.abandoned;
    if (collector_) collector_->record_abandon();
  }
  if (tracer_) {
    tracer_->instant(
        flight.request.trace_id, "router",
        abandoned ? "abandon" : "failed", sim_.now(),
        {obs::Tracer::str_arg("error", core::egp_error_name(err.error)),
         obs::Tracer::num_arg("link",
                              static_cast<std::uint64_t>(err.link))});
    trace_terminal(flight, abandoned ? "abandoned" : "failed");
  }
  if (on_error_) on_error_(err);
}

}  // namespace qlink::routing
