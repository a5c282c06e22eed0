#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "metrics/spacesaving.hpp"
#include "metrics/stats.hpp"
#include "sim/time.hpp"

/// \file edge_stats.hpp
/// Per-edge / per-node accounting substrate (ISSUE 8).
///
/// Every signal PRs 6-7 exposed is global; this is the per-entity
/// layer underneath obs::NetState: which edge is hot, which node
/// swaps the most, where admission waits concentrate. The substrate
/// is *passive* — it only ever receives facts from accounting hooks
/// in routing::ReservationTable / routing::Router /
/// netlayer::SwapService (all behind a null-by-default pointer), so
/// attaching one never schedules events or consumes randomness and
/// cannot perturb a seeded trajectory.
///
/// Utilization bookkeeping: each lease placed on an edge contributes
/// its window [start, min(scheduled end, release time)); an edge's
/// busy time at sim time T is the length of the *union* of those
/// windows clipped to [0, T] — "fraction of sim time covered by
/// active leases" is busy over elapsed, which is in [0, 1] by
/// construction. Windows are folded incrementally at (monotone) query
/// boundaries, so memory stays O(concurrently open leases per edge),
/// not O(history). Exact accumulators cover today's topologies; the
/// SpaceSaving sketch keeps hot-edge *ranking* O(k) for the
/// 1000+-node tier (fed one activity event per lease placement,
/// blocked-arrival footprint edge, and per-hop CREATE attempt).
///
/// Every per-edge hook also records its edge, once, in a touched list
/// that one reader (obs::NetState) drains per record. With it, and
/// has_open_lease() for the edges whose coverage can still grow, a
/// record costs O(edges that can have changed) instead of O(edges).

namespace qlink::metrics {

class EdgeStats {
 public:
  struct EdgeCounters {
    /// Lease windows ever placed on the edge (instant + booked).
    std::uint64_t leases = 0;
    /// Blocked-queue arrivals whose declared footprint names the edge
    /// (counts re-queues too — a contention pressure signal, not a
    /// request count; see blocked_requests() for the latter).
    std::uint64_t blocked = 0;
    /// Link-layer CREATE pairs fanned onto the edge (per admitted
    /// request: num_pairs per hop).
    std::uint64_t attempts = 0;
    /// End-to-end deliveries whose route used the edge (per hop, so
    /// an n-hop delivery counts once on each of its n edges).
    std::uint64_t deliveries = 0;
    /// Admissions whose leased path used the edge, and their summed
    /// submit->admission wait (each path edge carries the full wait).
    std::uint64_t admission_waits = 0;
    double admission_wait_s = 0.0;
    /// Delivered end-to-end fidelity of pairs routed over the edge.
    RunningStat fidelity;
  };

  struct NodeCounters {
    /// Bell measurements (entanglement swaps) executed at the node.
    std::uint64_t swaps = 0;
    /// Deliveries terminating at the node (as src or dst endpoint).
    std::uint64_t terminals = 0;
  };

  EdgeStats(std::size_t num_edges, std::size_t num_nodes,
            std::size_t sketch_capacity = 64);

  // -- ReservationTable hooks ---------------------------------------------
  /// A lease window [start, end) was placed on `edge` (end may be
  /// SimTime max for an unbounded pin). `start` is not before any time
  /// busy_seconds() already folded to: leases start at sim now or at a
  /// booked future time.
  void on_lease(std::size_t edge, std::uint64_t ticket, sim::SimTime start,
                sim::SimTime end);
  /// The ticket released its lease on `edge` at `now` (truncates the
  /// window if it would have run longer); now < 0 = release time
  /// unknown, keep the scheduled end.
  void on_lease_release(std::size_t edge, std::uint64_t ticket,
                        sim::SimTime now);
  /// A blocked request joined the retry queue declaring `footprint`.
  void on_blocked(std::span<const std::size_t> footprint);
  /// Request-level blocked accounting (mirrors Collector::
  /// record_blocked: counted once per request, not per re-queue).
  void on_blocked_request() { ++blocked_requests_; }

  // -- Router hooks -------------------------------------------------------
  /// A first admission waited `wait_s` behind reservations; every edge
  /// of the admitted path carries the wait.
  void on_admission_wait(std::span<const std::size_t> edges, double wait_s);

  // -- SwapService hooks --------------------------------------------------
  /// `pairs` link-layer CREATE pairs were fanned onto `edge`.
  void on_attempt(std::size_t edge, std::uint64_t pairs);
  /// A Bell measurement ran at `node`.
  void on_swap(std::uint32_t node);
  /// One delivered end-to-end pair crossed `edge`.
  void on_delivered_edge(std::size_t edge, double fidelity);
  /// Request-level delivery accounting: one end-to-end pair delivered
  /// between `src` and `dst` (call once per pair, after the per-edge
  /// calls).
  void on_delivered_pair(std::uint32_t src, std::uint32_t dst);

  // -- Queries ------------------------------------------------------------
  std::size_t num_edges() const noexcept { return edges_.size(); }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  const EdgeCounters& edge(std::size_t i) const { return edges_.at(i); }
  const NodeCounters& node(std::size_t i) const { return nodes_.at(i); }

  /// Union lease coverage of the edge over [0, t], in seconds. Queries
  /// must be non-decreasing in t per edge (they fold the open windows
  /// forward); NetState's interval boundaries satisfy that by
  /// construction. A query older than the fold point returns the
  /// folded value.
  double busy_seconds(std::size_t edge, sim::SimTime t) const;

  std::uint64_t blocked_requests() const noexcept {
    return blocked_requests_;
  }
  std::uint64_t deliveries() const noexcept { return deliveries_; }
  std::uint64_t admission_waits() const noexcept {
    return admission_waits_;
  }
  double admission_wait_seconds() const noexcept {
    return admission_wait_s_;
  }
  std::uint64_t lease_count() const noexcept { return lease_count_; }
  std::uint64_t attempt_pairs() const noexcept { return attempt_pairs_; }
  std::uint64_t swaps() const noexcept { return swaps_; }

  /// Hot-edge activity ranking (see file comment for what feeds it).
  const SpaceSaving& hot_edges() const noexcept { return sketch_; }

  // -- Touched-edge feed (one reader) -------------------------------------
  /// Reserve the touched-edge feed. A second reader would take the
  /// first one's edges, so claiming a claimed feed throws
  /// std::logic_error; release_touched() frees it.
  void claim_touched() const;
  void release_touched() const noexcept { touched_claimed_ = false; }
  /// Replace `out` with the edges any per-edge hook touched since the
  /// last call (each once, in touch order) and start a new list.
  void take_touched(std::vector<std::size_t>& out) const;
  /// True while the edge holds a lease window that ends after its last
  /// busy_seconds() fold, booked future windows included: its coverage
  /// can still grow with no further hook call.
  bool has_open_lease(std::size_t edge) const {
    return !coverage_.at(edge).open.empty();
  }

  /// Shard merge: counters and fidelity stats sum (parallel Welford),
  /// the sketch merges by its own rule, busy coverage adds folded
  /// seconds and concatenates open windows. Exact when the shards
  /// simulated disjoint sim-time ranges or disjoint edges (the sharded
  /// engine's plan); both sides should be folded (busy_seconds queried
  /// at their end times) first. Every merged edge counts as touched.
  void merge(const EdgeStats& other);

 private:
  struct Window {
    std::uint64_t ticket = 0;
    sim::SimTime start = 0;
    sim::SimTime end = 0;
  };

  struct Coverage {
    /// Windows possibly extending past folded_t (sorted lazily at fold
    /// time). mutable state lives in the parent's coverage_ vector —
    /// folding is caching, not observation-visible mutation.
    std::vector<Window> open;
    sim::SimTime folded_t = 0;
    sim::SimTime busy = 0;  // union coverage over [0, folded_t]
  };

  void touch(std::size_t edge) {
    if (touched_flag_[edge] == 0) {
      touched_flag_[edge] = 1;
      touched_.push_back(edge);
    }
  }

  std::vector<EdgeCounters> edges_;
  std::vector<NodeCounters> nodes_;
  mutable std::vector<Coverage> coverage_;
  /// Touched list and its per-edge membership flags. Draining it is
  /// bookkeeping for the one reader, like folding coverage_, so it is
  /// mutable too.
  mutable std::vector<std::size_t> touched_;
  mutable std::vector<std::uint8_t> touched_flag_;
  mutable bool touched_claimed_ = false;
  SpaceSaving sketch_;
  std::uint64_t blocked_requests_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t admission_waits_ = 0;
  double admission_wait_s_ = 0.0;
  std::uint64_t lease_count_ = 0;
  std::uint64_t attempt_pairs_ = 0;
  std::uint64_t swaps_ = 0;
};

}  // namespace qlink::metrics
