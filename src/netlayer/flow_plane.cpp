#include "netlayer/flow_plane.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "metrics/edge_stats.hpp"
#include "qstate/bell_algebra.hpp"

namespace qlink::netlayer {

namespace ba = qlink::qstate::bell_algebra;

namespace {

/// Werner-state Bell coefficients in the corrected (Phi+-indexed)
/// frame — the same composition PathSelector::estimated_fidelity uses,
/// because the swap cascade's conditional Paulis fold every branch
/// back to index 0.
ba::BellCoeffs werner_coeffs(double fidelity) {
  const double f = std::clamp(fidelity, 0.0, 1.0);
  const double rest = (1.0 - f) / 3.0;
  return {f, rest, rest, rest};
}

}  // namespace

FlowCalibration FlowCalibration::from_link(
    core::Link& link, std::span<const double> floor_menu) {
  FlowCalibration cal;
  cal.delay_s = sim::to_seconds(link.scenario().delay_a_to_b());
  cal.menu.reserve(floor_menu.size());
  for (const double floor : floor_menu) {
    Entry entry;
    entry.floor = floor;
    const auto advice =
        link.egp_a().feu().advise(floor, core::RequestType::kCreateKeep);
    entry.feasible = advice.feasible;
    if (advice.feasible) {
      entry.fidelity = advice.estimated_fidelity;
      entry.pair_time_s = sim::to_seconds(advice.expected_time_per_pair);
      entry.p_succ = link.herald_model()
                         .distribution(advice.alpha, advice.alpha)
                         .p_success();
    }
    cal.menu.push_back(entry);
  }
  return cal;
}

const FlowCalibration::Entry* FlowCalibration::lookup(
    double floor) const noexcept {
  constexpr double kTol = 1e-9;
  for (const Entry& e : menu) {  // exact operating point first
    if (e.feasible && std::abs(e.floor - floor) <= kTol) return &e;
  }
  for (const Entry& e : menu) {  // else the best point meeting the floor
    if (e.feasible && e.floor >= floor - kTol) return &e;
  }
  return nullptr;
}

const FlowCalibration::Entry* FlowCalibration::best() const noexcept {
  for (const Entry& e : menu) {
    if (e.feasible) return &e;
  }
  return nullptr;
}

FlowPlane::FlowPlane(FlowPlaneConfig config)
    : owned_engine_(config.engine == nullptr
                        ? std::make_unique<sim::ShardedEngine>()
                        : nullptr),
      engine_(config.engine == nullptr ? owned_engine_.get() : config.engine),
      shard_(config.engine == nullptr ? 0 : config.shard),
      random_(config.seed),
      edges_(std::move(config.edges)),
      num_nodes_(config.num_nodes),
      calibration_(std::move(config.calibration)),
      recorder_(config.collector) {
  if (shard_ >= engine_->num_shards()) {
    throw std::invalid_argument("FlowPlane: shard out of range");
  }
  if (edges_.empty()) {
    throw std::invalid_argument("FlowPlane: no links");
  }
  std::uint32_t max_id = 0;
  for (const auto& [a, b] : edges_) {
    if (a == b) throw std::invalid_argument("FlowPlane: self-loop edge");
    max_id = std::max({max_id, a, b});
  }
  if (num_nodes_ == 0) num_nodes_ = max_id + 1;
  if (max_id >= num_nodes_) {
    throw std::invalid_argument("FlowPlane: edge names unknown node");
  }
  next_free_.assign(edges_.size(), 0);
}

core::Link::RateEstimate FlowPlane::estimate_link(std::size_t link,
                                                  double floor) {
  (void)link;  // homogeneous hardware: every link shares one menu
  core::Link::RateEstimate est;
  constexpr double kTol = 1e-9;
  for (const FlowCalibration::Entry& e : calibration_.menu) {
    if (std::abs(e.floor - floor) <= kTol) {
      est.feasible = e.feasible;
      est.fidelity = e.fidelity;
      est.pair_time_s = e.pair_time_s;
      return est;
    }
  }
  return est;  // floor not in the calibrated menu: infeasible
}

sim::SimTime FlowPlane::sample_pair_time(const FlowCalibration::Entry& entry,
                                         std::size_t link) {
  // Geometric(p_succ) attempt slots of slot_s = pair_time_s * p_succ
  // seconds each: mean slots = 1/p_succ, so the mean wall time is the
  // FEU's expected pair time while the variance matches the attempt
  // process the full-detail MHP realises.
  const double p = std::clamp(entry.p_succ, 1e-9, 1.0);
  const double slot_s = entry.pair_time_s * p;
  const std::uint64_t slots =
      1 + static_cast<std::uint64_t>(
              std::floor(std::log(std::max(random_.uniform(), 1e-300)) /
                         std::log1p(-std::min(p, 1.0 - 1e-12))));
  stats_.attempts += slots;
  if (edge_stats_ != nullptr) edge_stats_->on_attempt(link, slots);
  return std::max<sim::SimTime>(
      sim::duration::seconds(static_cast<double>(slots) * slot_s), 1);
}

std::uint32_t FlowPlane::submit(const E2eRequest& request,
                                const std::vector<Hop>& route,
                                std::span<const double> hop_floors) {
  if (request.src == request.dst) {
    throw std::invalid_argument("FlowPlane: src == dst");
  }
  if (route.empty()) {
    throw std::invalid_argument("FlowPlane: empty route");
  }
  if (!hop_floors.empty() && hop_floors.size() != route.size()) {
    throw std::invalid_argument(
        "FlowPlane: hop_floors must match the route length");
  }
  std::uint32_t at = request.src;
  for (const Hop& hop : route) {
    if (hop.link >= edges_.size()) {
      throw std::invalid_argument("FlowPlane: route names unknown link");
    }
    const auto [a, b] = edges_[hop.link];
    const std::uint32_t entry_node = hop.reversed ? b : a;
    const std::uint32_t exit_node = hop.reversed ? a : b;
    if (entry_node != at) {
      throw std::invalid_argument("FlowPlane: route is not contiguous");
    }
    at = exit_node;
  }
  if (at != request.dst) {
    throw std::invalid_argument("FlowPlane: route does not end at dst");
  }

  const std::uint32_t id = next_request_id_++;
  ++stats_.requests;
  const sim::SimTime now = simulator().now();
  const sim::SimTime submitted =
      request.submitted_at >= 0 ? request.submitted_at : now;
  const std::uint16_t pairs = std::max<std::uint16_t>(request.num_pairs, 1);
  recorder_.admitted(request, id, pairs, now, submitted);

  // Resolve every hop's operating point up front; an infeasible hop
  // fails the request asynchronously (the full-detail plane would
  // surface it as an UNSUPP ERR after the CREATE round-trip).
  std::vector<const FlowCalibration::Entry*> points(route.size());
  double corr_delay_s = 0.0;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const double floor = !hop_floors.empty() && hop_floors[h] > 0.0
                             ? hop_floors[h]
                             : request.effective_link_floor();
    points[h] = calibration_.lookup(floor);
    corr_delay_s += calibration_.delay_s;
    if (points[h] == nullptr) {
      const std::size_t link = route[h].link;
      simulator().schedule_in(
          1,
          [this, id, link, src = request.src] {
            recorder_.error(src, id, core::EgpError::kUnsupported);
            if (on_error_ != nullptr) {
              on_error_({id, core::EgpError::kUnsupported, link});
            }
          },
          "flow.error");
      return id;
    }
  }

  // Per-hop generation: sequential pairs starting when the link frees
  // up (FIFO service). ready[h] walks the hop's cumulative timeline.
  std::vector<sim::SimTime> ready(route.size());
  for (std::size_t h = 0; h < route.size(); ++h) {
    ready[h] = std::max(now, next_free_[route[h].link]);
  }

  // Everything the delivery events share (route facts for edge stats);
  // one allocation per request, not per pair.
  struct RouteFacts {
    std::vector<std::size_t> links;
    std::vector<std::uint32_t> swap_nodes;  // intermediate nodes
    double fidelity = 0.0;
  };
  auto facts = std::make_shared<RouteFacts>();
  facts->links.reserve(route.size());
  ba::BellCoeffs acc = werner_coeffs(points[0]->fidelity);
  std::uint32_t node = request.src;
  for (std::size_t h = 0; h < route.size(); ++h) {
    facts->links.push_back(route[h].link);
    if (h > 0) {
      acc = ba::swap_coefficients(acc, werner_coeffs(points[h]->fidelity),
                                  0, 0);
      facts->swap_nodes.push_back(node);
    }
    const auto [a, b] = edges_[route[h].link];
    node = route[h].reversed ? a : b;
  }
  facts->fidelity = acc[0];

  const sim::SimTime corr = sim::duration::seconds(corr_delay_s);
  for (std::uint16_t j = 0; j < pairs; ++j) {
    sim::SimTime slowest = 0;
    for (std::size_t h = 0; h < route.size(); ++h) {
      ready[h] += sample_pair_time(*points[h], route[h].link);
      slowest = std::max(slowest, ready[h]);
    }
    E2eOk ok;
    ok.request_id = id;
    ok.src = request.src;
    ok.dst = request.dst;
    ok.pair_index = j;
    ok.total_pairs = pairs;
    ok.fidelity = facts->fidelity;
    ok.submit_time = submitted;
    ok.deliver_time = slowest + corr;
    ok.swaps = static_cast<int>(route.size()) - 1;
    ok.link_src = route.front().link;
    ok.link_dst = route.back().link;
    const double corr_s = corr_delay_s;
    const sim::SimTime admitted = now;
    simulator().schedule_at(
        ok.deliver_time,
        [this, ok, facts, corr_s, admitted] {
          ++stats_.pairs_delivered;
          if (edge_stats_ != nullptr) {
            for (const std::size_t link : facts->links) {
              edge_stats_->on_delivered_edge(link, facts->fidelity);
            }
            for (const std::uint32_t n : facts->swap_nodes) {
              edge_stats_->on_swap(n);
            }
            edge_stats_->on_delivered_pair(ok.src, ok.dst);
          }
          // Phase split at flow level: everything up to the last hop's
          // completion is generation; the swap cascade is folded into
          // the model (0); the classical-correction flight is the
          // summed one-way delays.
          recorder_.delivered(
              ok, simulator().now(),
              sim::to_seconds(ok.deliver_time - admitted) - corr_s, 0.0,
              corr_s);
          if (on_deliver_ != nullptr) on_deliver_(ok);
        },
        "flow.deliver");
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    next_free_[route[h].link] = ready[h];
  }
  return id;
}

}  // namespace qlink::netlayer
