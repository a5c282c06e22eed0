#include "workload/workload.hpp"

#include <stdexcept>
#include <tuple>

#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/session.hpp"
#include "routing/router.hpp"

namespace qlink::workload {

using core::CreateRequest;
using core::EgpError;
using core::ErrMessage;
using core::OkMessage;
using core::Priority;
using core::RequestType;

TrafficConfig WorkloadConfig::traffic() const {
  TrafficConfig t;
  t.nl = nl;
  t.ck = ck;
  t.md = md;
  t.origin = origin;
  t.min_fidelity = min_fidelity;
  t.max_time = max_time;
  t.link_min_fidelity = link_min_fidelity;
  return t;
}

DriverConfig WorkloadConfig::tuning() const {
  DriverConfig d;
  d.seed = seed;
  d.stale_pair_horizon = stale_pair_horizon;
  return d;
}

UsagePattern usage_pattern(const std::string& name, double load) {
  WorkloadConfig c;
  auto set = [&](double fnl, std::uint16_t knl, double fck,
                 std::uint16_t kck, double fmd, std::uint16_t kmd) {
    c.nl = {load * fnl, knl};
    c.ck = {load * fck, kck};
    c.md = {load * fmd, kmd};
  };
  // Table 2 of Appendix C.2.
  if (name == "Uniform") {
    set(1.0 / 3, 1, 1.0 / 3, 1, 1.0 / 3, 1);
  } else if (name == "MoreNL") {
    set(4.0 / 6, 3, 1.0 / 6, 3, 1.0 / 6, 255);
  } else if (name == "MoreCK") {
    set(1.0 / 6, 3, 4.0 / 6, 3, 1.0 / 6, 255);
  } else if (name == "MoreMD") {
    set(1.0 / 6, 3, 1.0 / 6, 3, 4.0 / 6, 255);
  } else if (name == "NoNLMoreCK") {
    set(0.0, 3, 4.0 / 5, 3, 1.0 / 5, 255);
  } else if (name == "NoNLMoreMD") {
    set(0.0, 3, 1.0 / 5, 3, 4.0 / 5, 255);
  } else {
    throw std::invalid_argument("usage_pattern: unknown pattern " + name);
  }
  return UsagePattern{name, c};
}

WorkloadDriver::WorkloadDriver(const Wiring& wiring, TrafficConfig traffic,
                               DriverConfig tuning,
                               metrics::Collector& collector)
    : Entity(*wiring.simulator, wiring.name),
      link_(wiring.link),
      net_(wiring.net),
      plane_(wiring.plane),
      swap_(wiring.swap),
      router_(wiring.router),
      traffic_(std::move(traffic)),
      tuning_(std::move(tuning)),
      collector_(collector),
      random_(tuning_.seed),
      timer_(
          *wiring.simulator,
          [&]() -> sim::SimTime {
            if (tuning_.poll_interval > 0) return tuning_.poll_interval;
            if (link_ != nullptr) return link_->scenario().mhp_cycle;
            if (net_ != nullptr) return net_->link(0).scenario().mhp_cycle;
            return sim::duration::microseconds(10);
          }(),
          [this] { on_cycle(); }, "workload.cycle") {
  if (link_ != nullptr) {
    if (traffic_.arrivals != nullptr) {
      throw std::invalid_argument(
          "WorkloadDriver: single-link mode has no arrival-process "
          "traffic; use the per-cycle KindSpecs");
    }
    for (std::uint32_t node : {link_->node_id_a(), link_->node_id_b()}) {
      core::Egp& egp = link_->egp(node);
      egp.set_ok_handler(
          [this, node](const OkMessage& ok) { on_ok(node, ok); });
      egp.set_err_handler(
          [this, node](const ErrMessage& err) { on_err(node, err); });
    }
    return;
  }
  if (net_ == nullptr && traffic_.arrivals == nullptr) {
    throw std::invalid_argument(
        "WorkloadDriver: a flow-plane routed driver needs an "
        "ArrivalProcess (the per-cycle issue calibrates against "
        "full-detail hardware)");
  }
  if (router_ != nullptr) {
    // The Router owns the plane's handlers; we consume the routed
    // deliveries it forwards.
    router_->set_deliver_handler([this](const netlayer::E2eOk& ok) {
      ++matched_;
      plane_->release(ok);
    });
  } else {
    // The SwapService owns the EGP OK/ERR streams; we only consume its
    // end-to-end deliveries.
    plane_->set_deliver_handler([this](const netlayer::E2eOk& ok) {
      ++matched_;
      plane_->release(ok);
    });
  }
}

std::unique_ptr<WorkloadDriver> WorkloadDriver::for_link(
    core::Link& link, const TrafficConfig& traffic,
    const DriverConfig& tuning, metrics::Collector& collector) {
  Wiring w;
  w.link = &link;
  w.simulator = &link.simulator();
  w.name = "workload";
  return std::unique_ptr<WorkloadDriver>(
      new WorkloadDriver(w, traffic, tuning, collector));
}

std::unique_ptr<WorkloadDriver> WorkloadDriver::for_e2e(
    netlayer::QuantumNetwork& network, netlayer::SwapService& swap,
    const TrafficConfig& traffic, const DriverConfig& tuning,
    metrics::Collector& collector) {
  Wiring w;
  w.net = &network;
  w.plane = &swap;
  w.swap = &swap;
  w.simulator = &network.simulator();
  w.name = "workload-e2e";
  return std::unique_ptr<WorkloadDriver>(
      new WorkloadDriver(w, traffic, tuning, collector));
}

std::unique_ptr<WorkloadDriver> WorkloadDriver::for_routed(
    routing::Router& router, const TrafficConfig& traffic,
    const DriverConfig& tuning, metrics::Collector& collector) {
  Wiring w;
  w.router = &router;
  w.plane = &router.plane();
  w.net = router.network();  // nullptr over the flow plane
  w.simulator = &router.plane().simulator();
  w.name = "workload-routed";
  return std::unique_ptr<WorkloadDriver>(
      new WorkloadDriver(w, traffic, tuning, collector));
}

void WorkloadDriver::start() {
  collector_.begin(now());
  timer_.start();
  if (traffic_.arrivals != nullptr) schedule_next_arrival();
}

void WorkloadDriver::stop() {
  timer_.stop();
  if (arrival_event_) {
    simulator().cancel(*arrival_event_);
    arrival_event_.reset();
  }
  collector_.end(now());
}

core::Link& WorkloadDriver::ref_link() {
  return link_ != nullptr ? *link_ : net_->link(0);
}

double WorkloadDriver::issue_probability(Priority kind,
                                         const KindSpec& spec) {
  if (spec.fraction <= 0.0) return 0.0;
  core::Link& link = ref_link();
  const bool is_keep = kind != Priority::kMeasureDirectly;
  const std::size_t type_idx = is_keep ? 0 : 1;
  if (!cached_p_succ_[type_idx]) {
    // In e2e mode, calibrate against the floor each hop's CREATE will
    // actually carry (see E2eRequest::effective_link_floor).
    netlayer::E2eRequest floor_probe;
    floor_probe.min_fidelity = traffic_.min_fidelity;
    floor_probe.link_min_fidelity = traffic_.link_min_fidelity;
    double floor = link_ == nullptr ? floor_probe.effective_link_floor()
                                    : traffic_.min_fidelity;
    // Routed mode: the router operates every link at its annotated
    // CREATE floor, so calibrate against the reference link's actual
    // set-point — probing a degraded link at a floor its hardware
    // cannot support would read as infeasible and silently zero the
    // offered load.
    if (router_ != nullptr) {
      const double annotated = router_->graph().params(0).link_floor;
      if (annotated > 0.0) floor = annotated;
    }
    const auto advice = link.egp_a().feu().advise(
        floor,
        is_keep ? RequestType::kCreateKeep : RequestType::kCreateMeasure);
    cached_p_succ_[type_idx] =
        advice.feasible
            ? link.herald_model().distribution(advice.alpha, advice.alpha)
                  .p_success()
            : 0.0;
  }
  const double p_succ = *cached_p_succ_[type_idx];
  // E: expected MHP cycles per attempt (Section 6: ~1 for M, the REPLY
  // round trip and carbon-refresh overhead for K).
  double e_cycles = 1.0;
  if (is_keep) {
    const auto& feu = link.egp_a().feu();
    const auto& nv = link.scenario().nv;
    const double refresh =
        static_cast<double>(nv.carbon_refresh_duration) /
        static_cast<double>(nv.carbon_refresh_interval);
    e_cycles = static_cast<double>(feu.k_attempt_period_cycles()) /
               (1.0 - refresh);
  }
  return spec.fraction * p_succ / e_cycles;  // per pair; /k applied later
}

void WorkloadDriver::on_cycle() {
  if (session_ != nullptr) session_->poll();
  if (plane_ != nullptr) {
    // Stale-pair eviction lives in the plane here; pending_ is only
    // populated in single-link mode.
    if (traffic_.arrivals == nullptr) maybe_issue_e2e();
    if (net_ != nullptr) {
      std::size_t queued = 0;
      for (std::size_t i = 0; i < net_->num_links(); ++i) {
        queued += net_->link(i).egp_a().queue().total_size();
      }
      collector_.sample_queue_length(queued);
    }
    if (router_ != nullptr) {
      // Scheduler occupancy: requests parked blind in the blocked queue
      // plus deferred bookings waiting for their window to open.
      collector_.sample_sched_backlog(
          router_->reservations().blocked() + router_->deferred_pending());
    }
    return;
  }
  maybe_issue(Priority::kNetworkLayer, traffic_.nl);
  maybe_issue(Priority::kCreateKeep, traffic_.ck);
  maybe_issue(Priority::kMeasureDirectly, traffic_.md);
  sweep_stale();
  collector_.sample_queue_length(link_->egp_a().queue().total_size());
}

std::uint16_t WorkloadDriver::throttled_request_size(double base,
                                                     std::uint16_t k_max) {
  if (base <= 0.0) return 0;
  const auto k = static_cast<std::uint16_t>(
      random_.uniform_int(1, std::max<std::uint16_t>(k_max, 1)));
  return random_.bernoulli(base / static_cast<double>(k)) ? k : 0;
}

std::size_t WorkloadDriver::e2e_num_nodes() const {
  if (net_ != nullptr) return net_->num_nodes();
  return router_->graph().num_nodes();
}

std::pair<std::uint32_t, std::uint32_t> WorkloadDriver::pick_endpoints() {
  const auto last = static_cast<std::uint32_t>(e2e_num_nodes() - 1);
  // In a star, node 0 is the center: the "first" end is leaf 1 so that
  // fixed-endpoint runs actually traverse a swap at the center. (Only
  // the built-in shapes have a distinguished center; edge-list
  // topologies use plain node 0.)
  const std::uint32_t first =
      net_ != nullptr && net_->config().edges.empty() &&
              net_->config().kind == netlayer::TopologyKind::kStar &&
              last > 1
          ? 1
          : 0;
  std::uint32_t src = first;
  std::uint32_t dst = last;
  switch (traffic_.origin) {
    case OriginMode::kAllA:
      break;
    case OriginMode::kAllB:
      std::swap(src, dst);
      break;
    case OriginMode::kRandom: {
      src = static_cast<std::uint32_t>(random_.uniform_int(0, last));
      dst = static_cast<std::uint32_t>(random_.uniform_int(0, last - 1));
      if (dst >= src) ++dst;  // uniform over distinct pairs
      break;
    }
  }
  return {src, dst};
}

void WorkloadDriver::maybe_issue_e2e() {
  const double base = issue_probability(Priority::kNetworkLayer, traffic_.nl);
  const std::uint16_t k = throttled_request_size(base, traffic_.nl.k_max);
  if (k == 0) return;

  const auto [src, dst] = pick_endpoints();
  netlayer::E2eRequest req;
  req.src = src;
  req.dst = dst;
  req.num_pairs = k;
  req.min_fidelity = traffic_.min_fidelity;
  req.link_min_fidelity = traffic_.link_min_fidelity;
  req.max_time = traffic_.max_time;
  if (router_ != nullptr) {
    router_->submit(req);  // admission (or queueing) is the router's call
  } else {
    swap_->request(req);
  }
  ++issued_;
}

void WorkloadDriver::schedule_next_arrival() {
  if (tuning_.max_requests > 0 && issued_ >= tuning_.max_requests) return;
  const sim::SimTime at = traffic_.arrivals->next_arrival(random_, now());
  arrival_event_ = schedule_at(
      at,
      [this] {
        arrival_event_.reset();
        on_arrival();
      },
      "workload.arrival");
}

void WorkloadDriver::on_arrival() {
  // Draw order is part of the seeded contract: the arrival's shape
  // first, then the gap to the next arrival.
  issue_shaped(traffic_.arrivals->sample_shape(random_, now()));
  schedule_next_arrival();
}

void WorkloadDriver::issue_shaped(const RequestShape& shape) {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  if (!shape.endpoints.empty()) {
    std::tie(src, dst) = shape.endpoints.front();
  } else {
    std::tie(src, dst) = pick_endpoints();
  }
  netlayer::E2eRequest req;
  req.src = src;
  req.dst = dst;
  req.num_pairs = std::max<std::uint16_t>(shape.num_pairs, 1);
  req.min_fidelity =
      shape.min_fidelity > 0.0 ? shape.min_fidelity : traffic_.min_fidelity;
  req.link_min_fidelity = traffic_.link_min_fidelity;
  req.max_time = traffic_.max_time;
  if (router_ != nullptr) {
    router_->submit(req);
  } else {
    swap_->request(req);
  }
  ++issued_;
}

void WorkloadDriver::maybe_issue(Priority kind, const KindSpec& spec) {
  const double base = issue_probability(kind, spec);
  const std::uint16_t k = throttled_request_size(base, spec.k_max);
  if (k == 0) return;

  std::uint32_t origin = link_->node_id_a();
  switch (traffic_.origin) {
    case OriginMode::kAllA:
      origin = link_->node_id_a();
      break;
    case OriginMode::kAllB:
      origin = link_->node_id_b();
      break;
    case OriginMode::kRandom:
      origin = random_.bernoulli(0.5) ? link_->node_id_b()
                                      : link_->node_id_a();
      break;
  }

  CreateRequest req;
  req.remote_node_id = origin == link_->node_id_a() ? link_->node_id_b()
                                                    : link_->node_id_a();
  req.num_pairs = k;
  req.min_fidelity = traffic_.min_fidelity;
  req.max_time = traffic_.max_time;
  req.priority = kind;
  req.consecutive = true;  // Section 6: all three kinds deliver per pair
  switch (kind) {
    case Priority::kNetworkLayer:
      req.type = RequestType::kCreateKeep;
      req.store_in_memory = true;
      req.purpose_id = 1;
      break;
    case Priority::kCreateKeep:
      req.type = RequestType::kCreateKeep;
      req.store_in_memory = true;
      req.purpose_id = 2;
      break;
    case Priority::kMeasureDirectly:
      req.type = RequestType::kCreateMeasure;
      req.store_in_memory = false;
      req.purpose_id = 3;
      break;
  }

  core::Egp& egp = link_->egp(origin);
  const std::uint32_t create_id = egp.create(req);
  kind_by_create_[side_index(origin)][create_id] = kind;
  collector_.record_create(origin, create_id, kind, k, now());
  ++issued_;
}

void WorkloadDriver::on_ok(std::uint32_t node, const OkMessage& ok) {
  Priority kind = Priority::kCreateKeep;
  auto& by_create = kind_by_create_[side_index(ok.origin_node)];
  const auto it = by_create.find(ok.create_id);
  if (it != by_create.end()) kind = it->second;

  PendingPair& pending = pending_[ok.ent_id.seq_mhp];
  if (pending.first_seen == 0) pending.first_seen = now();
  (node == link_->node_id_a() ? pending.ok_a : pending.ok_b) = ok;

  // Latency/goodness metrics are defined at the requesting node.
  if (node == ok.origin_node) {
    std::optional<double> fidelity;
    if (!ok.is_measure_directly && pending.ok_a && pending.ok_b) {
      fidelity =
          link_->pair_fidelity(pending.ok_a->qubit, pending.ok_b->qubit);
    }
    collector_.record_ok(ok, kind, now(), fidelity);
    if (ok.pair_index + 1 == ok.total_pairs) {
      kind_by_create_[side_index(ok.origin_node)].erase(ok.create_id);
    }
  } else if (!ok.is_measure_directly && pending.ok_a && pending.ok_b) {
    // The origin's OK arrived first and was recorded without fidelity;
    // record it now that both halves are visible.
    collector_.kind(kind).fidelity.add(
        link_->pair_fidelity(pending.ok_a->qubit, pending.ok_b->qubit));
  }

  if (pending.ok_a && pending.ok_b) {
    consume(pending);
    pending_.erase(ok.ent_id.seq_mhp);
    ++matched_;
  }
}

void WorkloadDriver::consume(const PendingPair& pair) {
  if (pair.ok_a->is_measure_directly) {
    if (pair.ok_a->outcome >= 0 && pair.ok_b->outcome >= 0) {
      collector_.record_correlation(pair.ok_a->basis, pair.ok_a->outcome,
                                    pair.ok_b->outcome,
                                    pair.ok_a->heralded_state);
    }
    return;
  }
  link_->egp_a().release_delivered(*pair.ok_a);
  link_->egp_b().release_delivered(*pair.ok_b);
}

void WorkloadDriver::sweep_stale() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingPair& p = it->second;
    if (now() - p.first_seen > tuning_.stale_pair_horizon) {
      // The partner OK will never come (lost REPLY, later EXPIREd).
      if (p.ok_a && !p.ok_a->is_measure_directly) {
        link_->egp_a().release_delivered(*p.ok_a);
      }
      if (p.ok_b && !p.ok_b->is_measure_directly) {
        link_->egp_b().release_delivered(*p.ok_b);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void WorkloadDriver::on_err(std::uint32_t node, const ErrMessage& err) {
  (void)node;
  collector_.record_err(err);
  // A terminal ERR means no more OKs will arrive for this create; a
  // range revoke (kExpired with a nonzero seq window) can leave the
  // request running. Drop the kind mapping so it cannot accumulate.
  if (err.error != EgpError::kExpired ||
      (err.seq_low == 0 && err.seq_high == 0)) {
    kind_by_create_[side_index(err.origin_node)].erase(err.create_id);
  }
}

}  // namespace qlink::workload
