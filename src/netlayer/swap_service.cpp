#include "netlayer/swap_service.hpp"

#include <utility>

#include "metrics/edge_stats.hpp"
#include "quantum/bell.hpp"
#include "quantum/gates.hpp"

namespace qlink::netlayer {

using core::CreateRequest;
using core::OkMessage;
using core::Priority;
using core::RequestType;
using quantum::QubitId;
namespace gates = quantum::gates;
namespace bell = quantum::bell;

SwapService::SwapService(QuantumNetwork& network,
                         metrics::Collector* collector)
    : Entity(network.simulator(), "swap-service"),
      net_(network),
      recorder_(collector) {
  for (std::size_t i = 0; i < net_.num_links(); ++i) {
    const auto [node_a, node_b] = net_.endpoints(i);
    for (std::uint32_t node : {node_a, node_b}) {
      core::Egp& egp = net_.link(i).egp(node);
      egp.set_ok_handler([this, i, node](const OkMessage& ok) {
        on_ok(i, node, ok);
      });
      egp.set_err_handler([this, i, node](const core::ErrMessage& err) {
        on_err(i, node, err);
      });
    }
  }
}

std::uint32_t SwapService::request(const E2eRequest& request) {
  return this->request(request, net_.path(request.src, request.dst));
}

std::size_t SwapService::num_links() const noexcept {
  return net_.num_links();
}

std::size_t SwapService::num_nodes() const noexcept {
  return net_.num_nodes();
}

std::pair<std::uint32_t, std::uint32_t> SwapService::endpoints(
    std::size_t link) const {
  return net_.endpoints(link);
}

core::Link::RateEstimate SwapService::estimate_link(std::size_t link,
                                                    double floor) {
  return net_.link(link).estimate_k_create(floor);
}

double SwapService::link_delay_s(std::size_t link) const {
  return sim::to_seconds(net_.link(link).scenario().delay_a_to_b());
}

std::uint32_t SwapService::request(const E2eRequest& request,
                                   const std::vector<Hop>& route,
                                   std::span<const double> hop_floors) {
  validate_route(*this, "SwapService", request, route, hop_floors);

  RequestState rs;
  rs.id = next_request_id_++;
  rs.req = request;
  rs.submitted = request.submitted_at >= 0 ? request.submitted_at : now();
  rs.admitted = now();

  rs.hops.reserve(route.size());
  const double link_floor = request.effective_link_floor();
  for (std::size_t i = 0; i < route.size(); ++i) {
    const Hop& hop = route[i];
    CreateRequest cr;
    cr.remote_node_id = net_.hop_exit(hop);
    cr.type = RequestType::kCreateKeep;
    cr.num_pairs = request.num_pairs;
    cr.min_fidelity = !hop_floors.empty() && hop_floors[i] > 0.0
                          ? hop_floors[i]
                          : link_floor;
    cr.max_time = request.max_time;
    cr.priority = Priority::kNetworkLayer;
    cr.purpose_id = request.purpose_id;
    cr.consecutive = true;  // swap as soon as every hop has one pair
    cr.store_in_memory = request.store_in_memory;

    HopState hs;
    hs.hop = hop;
    const std::uint32_t entry = net_.hop_entry(hop);
    hs.create_id = net_.egp_at(hop.link, entry).create(cr);
    if (tracer_) {
      // Hops of one request overlap in time, so they are async spans
      // (matched by cat + id), not lane spans.
      hs.span_id = tracer_->async_begin(
          request.trace_id, "hop", "hop", now(),
          {obs::Tracer::num_arg("link",
                                static_cast<std::uint64_t>(hop.link)),
           obs::Tracer::num_arg("from", static_cast<std::uint64_t>(entry)),
           obs::Tracer::num_arg(
               "to", static_cast<std::uint64_t>(net_.hop_exit(hop)))});
    }
    by_create_[{hop.link, entry, hs.create_id}] = {rs.id, rs.hops.size()};
    if (edge_stats_) edge_stats_->on_attempt(hop.link, request.num_pairs);
    rs.hops.push_back(std::move(hs));
  }

  recorder_.admitted(request, rs.id, request.num_pairs, now(), rs.submitted);
  if (request.resubmission_of != 0) ++stats_.resubmissions;
  ++stats_.requests;
  const std::uint32_t id = rs.id;
  requests_.emplace(id, std::move(rs));
  return id;
}

void SwapService::on_ok(std::size_t link, std::uint32_t node,
                        const OkMessage& ok) {
  const auto it = by_create_.find({link, ok.origin_node, ok.create_id});
  if (it == by_create_.end()) {
    ++stats_.unclaimed_oks;
    // An OK that belongs to no end-to-end request (e.g. link traffic
    // issued directly by a test): a K pair nobody asked for must not
    // pin device memory forever.
    if (!ok.is_measure_directly) {
      net_.link(link).egp(node).release_delivered(ok);
    }
    return;
  }

  const auto [request_id, hop_index] = it->second;
  RequestState& rs = requests_.at(request_id);
  HopState& hs = rs.hops.at(hop_index);

  PartialPair& partial = hs.partial[ok.ent_id.seq_mhp];
  const auto [node_a, node_b] = net_.endpoints(link);
  (void)node_b;
  (node == node_a ? partial.a : partial.b) = ok;
  if (!partial.a || !partial.b) return;

  hs.ready.push_back(MatchedPair{link, *partial.a, *partial.b});
  hs.partial.erase(ok.ent_id.seq_mhp);
  if (tracer_) {
    tracer_->async_instant(
        hs.span_id, rs.req.trace_id, "hop", "pair_matched", now(),
        {obs::Tracer::num_arg(
            "seq", static_cast<std::uint64_t>(ok.ent_id.seq_mhp))});
  }
  try_launch(rs);
}

void SwapService::try_launch(RequestState& rs) {
  while (rs.launched < rs.req.num_pairs) {
    bool all_ready = true;
    for (const HopState& hs : rs.hops) {
      if (hs.ready.empty()) {
        all_ready = false;
        break;
      }
    }
    if (!all_ready) return;

    std::vector<MatchedPair> pairs;
    pairs.reserve(rs.hops.size());
    for (HopState& hs : rs.hops) {
      pairs.push_back(hs.ready.front());
      hs.ready.pop_front();
    }
    ++rs.launched;
    stats_.link_pairs_consumed += pairs.size();

    // Run the cascade from a fresh event: OK handlers fire in the
    // middle of EGP processing, and the swap mutates device memory.
    const std::uint32_t id = rs.id;
    const sim::SimTime launched_at = now();
    schedule_in(
        0,
        [this, id, launched_at, moved = std::move(pairs)]() mutable {
          run_cascade(id, std::move(moved), launched_at);
        },
        "swap.cascade");
  }
}

sim::SimTime SwapService::correction_delay(const RequestState& rs) {
  // Swap outcomes announced at the first intermediate node travel the
  // rest of the route to dst; that node's announcement dominates.
  sim::SimTime delay = 0;
  for (std::size_t i = 1; i < rs.hops.size(); ++i) {
    delay += net_.link(rs.hops[i].hop.link).scenario().delay_a_to_b();
  }
  return delay;
}

void SwapService::run_cascade(std::uint32_t request_id,
                              std::vector<MatchedPair> pairs,
                              sim::SimTime launched_at) {
  const auto rit = requests_.find(request_id);
  if (rit == requests_.end()) {
    // The request failed between launch and this event: nothing to
    // swap for anymore, return every held qubit to its EGP.
    for (const MatchedPair& p : pairs) {
      const auto [node_a, node_b] = net_.endpoints(p.link);
      net_.link(p.link).egp(node_a).release_delivered(p.a);
      net_.link(p.link).egp(node_b).release_delivered(p.b);
    }
    return;
  }
  RequestState& rs = rit->second;
  quantum::QuantumRegistry& reg = net_.registry();

  // End qubits of the (future) end-to-end pair.
  const Hop& first = rs.hops.front().hop;
  const Hop& last = rs.hops.back().hop;
  const OkMessage src_ok = near_ok(first, pairs.front());
  const OkMessage dst_ok = far_ok(last, pairs.back());

  // Left-to-right swap cascade. Invariant: after step i, (src qubit,
  // far qubit of hop i) is a |Psi+> pair (delivered K pairs are Psi+;
  // the corrections below restore the frame after every swap) — so the
  // end-to-end pair lands on (src_ok.qubit, dst_ok.qubit).
  int swaps = 0;
  for (std::size_t i = 1; i < rs.hops.size(); ++i) {
    const Hop& left = rs.hops[i - 1].hop;
    const Hop& right = rs.hops[i].hop;
    const std::uint32_t node = net_.hop_exit(left);

    const OkMessage left_ok = far_ok(left, pairs[i - 1]);
    const OkMessage right_near = near_ok(right, pairs[i]);
    const OkMessage right_far = far_ok(right, pairs[i]);
    const QubitId control = left_ok.qubit;   // left pair's half here
    const QubitId target = right_near.qubit;  // right pair's half here

    // Bring decoherence up to date on everything the swap touches.
    net_.link(left.link).device(node).touch(control);
    net_.link(right.link).device(node).touch(target);
    net_.link(right.link)
        .device(net_.hop_exit(right))
        .touch(right_far.qubit);

    // Bell measurement across the node's two halves (closed-form
    // entanglement swap on structured backends; the explicit CNOT + H
    // + Z/Z circuit on the dense one).
    const auto [m1, m2] = reg.bell_measure(control, target);

    // Conditional corrections on the right pair's far half: X for the
    // Psi+ -> Phi+ frame offset, then the outcome-dependent Paulis
    // (same table as examples/repeater_swap_nl.cpp). They are applied
    // instantly with simulator privilege; the classical announcement
    // latency is charged to the delivery below instead.
    const QubitId far_q[] = {right_far.qubit};
    if (m2 == 0) reg.apply_unitary(gates::x(), far_q);  // X * X^m2
    if (m1 == 1) reg.apply_unitary(gates::z(), far_q);

    // The measured halves are spent: hand them back to their EGPs.
    net_.link(left.link).egp(node).release_delivered(left_ok);
    net_.link(right.link).egp(node).release_delivered(right_near);

    ++swaps;
    ++stats_.swaps;
    if (edge_stats_) edge_stats_->on_swap(node);
  }

  E2eOk ok;
  ok.request_id = rs.id;
  ok.src = rs.req.src;
  ok.dst = rs.req.dst;
  ok.total_pairs = rs.req.num_pairs;  // pair_index assigned at delivery
  ok.qubit_src = src_ok.qubit;
  ok.qubit_dst = dst_ok.qubit;
  ok.submit_time = rs.submitted;
  ok.swaps = swaps;
  ok.link_src = first.link;
  ok.link_dst = last.link;
  ok.ok_src = src_ok;
  ok.ok_dst = dst_ok;

  // Deliver after the swap outcomes could classically reach dst; the
  // pair keeps decohering while the announcements are in flight.
  const sim::SimTime cascade_at = now();
  schedule_in(correction_delay(rs), [this, ok, launched_at,
                                     cascade_at]() mutable {
    const auto it = requests_.find(ok.request_id);
    if (it == requests_.end()) {
      // The request failed (and reported E2eErr) while this
      // announcement was in flight; delivering now would contradict
      // the error, so reclaim the orphaned pair instead.
      release(ok);
      return;
    }
    net_.link(ok.link_src).device(ok.src).touch(ok.qubit_src);
    net_.link(ok.link_dst).device(ok.dst).touch(ok.qubit_dst);
    const QubitId ends[] = {ok.qubit_src, ok.qubit_dst};
    ok.fidelity = net_.registry().fidelity(
        ends, bell::state_vector(bell::BellState::kPsiPlus));
    ok.deliver_time = now();
    ++stats_.pairs_delivered;

    RequestState& state = it->second;
    ok.pair_index = state.delivered++;
    // Latency phase decomposition (ISSUE 8): admission -> first
    // full-route match (generation), match -> cascade executed (swap),
    // cascade -> classical announcement at dst (delivery).
    recorder_.delivered(ok, now(),
                        sim::to_seconds(launched_at - state.admitted),
                        sim::to_seconds(cascade_at - launched_at),
                        sim::to_seconds(now() - cascade_at));
    if (edge_stats_) {
      for (const HopState& hs : state.hops) {
        edge_stats_->on_delivered_edge(hs.hop.link, ok.fidelity);
      }
      edge_stats_->on_delivered_pair(ok.src, ok.dst);
    }
    if (tracer_) {
      tracer_->instant(
          state.req.trace_id, "request", "deliver", now(),
          {obs::Tracer::num_arg("pair",
                                static_cast<std::uint64_t>(ok.pair_index)),
           obs::Tracer::num_arg("fidelity", ok.fidelity),
           obs::Tracer::num_arg("swaps",
                                static_cast<std::uint64_t>(ok.swaps))});
    }
    const bool done = state.delivered >= state.req.num_pairs;
    if (on_deliver_) {
      on_deliver_(ok);
    } else {
      // Nobody will ever call release(): same policy as unclaimed OKs —
      // a pair nobody consumes must not pin device memory forever.
      release(ok);
    }
    if (done) erase_request(ok.request_id);
  }, "swap.deliver");
}

void SwapService::on_err(std::size_t link, std::uint32_t node,
                         const core::ErrMessage& err) {
  (void)node;
  // Exact-match attribution only. The EGP resolves ERRs to the
  // CREATE's origin while the request is live (Egp::handle_expire), so
  // the only ERRs that miss here are duplicates for already-resolved
  // requests — and guessing the opposite endpoint instead would kill
  // an innocent request whenever per-EGP create ids collide across the
  // link's two ends.
  const auto find_create = [this, link, &err] {
    return by_create_.find({link, err.origin_node, err.create_id});
  };

  if (err.error == core::EgpError::kExpired) {
    recorder_.error(err.origin_node, err.create_id, err.error);
    // (0,0) is the EGP's whole-request expiry; the CREATE is gone from
    // the link queue, so the end-to-end request can never complete.
    if (err.seq_low == 0 && err.seq_high == 0) {
      const auto it = find_create();
      if (tracer_) {
        // Attribute to the owning request's lane; orphan ERRs go to
        // the global lane (trace 0).
        tracer_->instant(
            it != by_create_.end()
                ? requests_.at(it->second.first).req.trace_id
                : obs::TraceId{0},
            "egp", "expired", now(),
            {obs::Tracer::num_arg("link", static_cast<std::uint64_t>(link))});
      }
      if (it != by_create_.end()) {
        fail_request(requests_.at(it->second.first), link,
                     core::EgpError::kExpired);
      }
      return;
    }
    // Sequence-gap revokes may arrive with create_id 0 (the EGP cannot
    // always attribute a lost-REPLY gap to one request), so sweep the
    // revoked midpoint range out of every request using this link.
    // Already-swapped pairs can't be unswapped; their damage shows up
    // in measured fidelity. A request that lost a pair this way can
    // never refill it (the link-layer CREATE already counted it as
    // done), so fail it rather than leave it wedged open.
    std::vector<std::uint32_t> ids;
    ids.reserve(requests_.size());
    for (const auto& [id, rs] : requests_) ids.push_back(id);
    for (const std::uint32_t id : ids) {
      const auto rit = requests_.find(id);
      if (rit == requests_.end()) continue;
      if (drop_revoked(rit->second, link, err.seq_low, err.seq_high) > 0) {
        if (tracer_) {
          tracer_->instant(rit->second.req.trace_id, "egp", "revoked", now(),
                           {obs::Tracer::num_arg(
                               "link", static_cast<std::uint64_t>(link))});
        }
        fail_request(rit->second, link, core::EgpError::kExpired);
      }
    }
    return;
  }

  const auto it = find_create();
  if (it == by_create_.end()) {
    if (tracer_) {
      tracer_->instant(
          0, "egp", "error", now(),
          {obs::Tracer::str_arg("error", core::egp_error_name(err.error)),
           obs::Tracer::num_arg("link", static_cast<std::uint64_t>(link))});
    }
    return;
  }
  RequestState& rs = requests_.at(it->second.first);
  recorder_.error(rs.req.src, rs.id, err.error);
  if (tracer_) {
    tracer_->instant(
        rs.req.trace_id, "egp", "error", now(),
        {obs::Tracer::str_arg("error", core::egp_error_name(err.error)),
         obs::Tracer::num_arg("link", static_cast<std::uint64_t>(link))});
  }
  fail_request(rs, link, err.error);
}

std::size_t SwapService::drop_revoked(RequestState& rs, std::size_t link,
                                      std::uint32_t seq_low,
                                      std::uint32_t seq_high) {
  const auto [node_a, node_b] = net_.endpoints(link);
  core::Link& l = net_.link(link);
  const auto revoked = [&](std::uint32_t seq) {
    return seq >= seq_low && seq < seq_high;
  };
  std::size_t dropped = 0;
  for (HopState& hs : rs.hops) {
    if (hs.hop.link != link) continue;
    // A revoked OK's qubit is still pinned at the node that received
    // it; hand every dropped half back (cf. WorkloadDriver::sweep_stale).
    for (auto it = hs.partial.begin(); it != hs.partial.end();) {
      if (revoked(it->first)) {
        if (it->second.a) l.egp(node_a).release_delivered(*it->second.a);
        if (it->second.b) l.egp(node_b).release_delivered(*it->second.b);
        it = hs.partial.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    for (auto it = hs.ready.begin(); it != hs.ready.end();) {
      if (revoked(it->a.ent_id.seq_mhp)) {
        l.egp(node_a).release_delivered(it->a);
        l.egp(node_b).release_delivered(it->b);
        it = hs.ready.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

void SwapService::fail_request(RequestState& rs, std::size_t link,
                               core::EgpError error) {
  ++stats_.errors;
  // Return every pair half we are still holding, and retract the
  // sibling hops' link-layer CREATEs: an abandoned end-to-end request
  // must not keep its other hops generating pairs that would only
  // surface as unclaimed OKs (wasted link throughput).
  for (HopState& hs : rs.hops) {
    const auto [node_a, node_b] = net_.endpoints(hs.hop.link);
    core::Link& l = net_.link(hs.hop.link);
    for (const MatchedPair& p : hs.ready) {
      l.egp(node_a).release_delivered(p.a);
      l.egp(node_b).release_delivered(p.b);
    }
    for (const auto& [seq, partial] : hs.partial) {
      if (partial.a) l.egp(node_a).release_delivered(*partial.a);
      if (partial.b) l.egp(node_b).release_delivered(*partial.b);
    }
    net_.egp_at(hs.hop.link, net_.hop_entry(hs.hop))
        .cancel_create(hs.create_id);
  }
  if (on_error_) on_error_(E2eErr{rs.id, error, link});
  erase_request(rs.id);
}

void SwapService::erase_request(std::uint32_t id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) return;
  for (const HopState& hs : it->second.hops) {
    by_create_.erase(
        {hs.hop.link, net_.hop_entry(hs.hop), hs.create_id});
    if (tracer_ && hs.span_id != 0) {
      tracer_->async_end(hs.span_id, it->second.req.trace_id, "hop", "hop",
                         now());
    }
  }
  requests_.erase(it);
}

void SwapService::release(const E2eOk& ok) {
  net_.link(ok.link_src).egp(ok.src).release_delivered(ok.ok_src);
  net_.link(ok.link_dst).egp(ok.dst).release_delivered(ok.ok_dst);
}

}  // namespace qlink::netlayer
