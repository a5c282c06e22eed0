#include "metrics/edge_stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace qlink::metrics {

EdgeStats::EdgeStats(std::size_t num_edges, std::size_t num_nodes,
                     std::size_t sketch_capacity)
    : edges_(num_edges),
      nodes_(num_nodes),
      coverage_(num_edges),
      touched_flag_(num_edges, 0),
      sketch_(sketch_capacity) {}

void EdgeStats::on_lease(std::size_t edge, std::uint64_t ticket,
                         sim::SimTime start, sim::SimTime end) {
  ++edges_.at(edge).leases;
  ++lease_count_;
  touch(edge);
  coverage_[edge].open.push_back(Window{ticket, start, end});
  sketch_.add(static_cast<std::uint64_t>(edge));
}

void EdgeStats::on_lease_release(std::size_t edge, std::uint64_t ticket,
                                 sim::SimTime now) {
  if (now < 0) return;  // release time unknown: keep the scheduled end
  for (Window& w : coverage_.at(edge).open) {
    if (w.ticket == ticket) {
      touch(edge);
      // Early release truncates the window; a lease that lapsed first
      // (end <= now) keeps its scheduled end. Releases happen at or
      // after every boundary folded so far, so no folded coverage is
      // ever rewritten.
      w.end = std::min(w.end, now);
      return;
    }
  }
  // Already folded past its end (or lapsed and folded): nothing to do.
}

void EdgeStats::on_blocked(std::span<const std::size_t> footprint) {
  for (const std::size_t e : footprint) {
    ++edges_.at(e).blocked;
    touch(e);
    sketch_.add(static_cast<std::uint64_t>(e));
  }
}

void EdgeStats::on_admission_wait(std::span<const std::size_t> edges,
                                  double wait_s) {
  ++admission_waits_;
  admission_wait_s_ += wait_s;
  for (const std::size_t e : edges) {
    EdgeCounters& c = edges_.at(e);
    ++c.admission_waits;
    c.admission_wait_s += wait_s;
    touch(e);
  }
}

void EdgeStats::on_attempt(std::size_t edge, std::uint64_t pairs) {
  edges_.at(edge).attempts += pairs;
  attempt_pairs_ += pairs;
  touch(edge);
  sketch_.add(static_cast<std::uint64_t>(edge), pairs);
}

void EdgeStats::on_swap(std::uint32_t node) {
  ++nodes_.at(node).swaps;
  ++swaps_;
}

void EdgeStats::on_delivered_edge(std::size_t edge, double fidelity) {
  EdgeCounters& c = edges_.at(edge);
  ++c.deliveries;
  c.fidelity.add(fidelity);
  touch(edge);
}

void EdgeStats::on_delivered_pair(std::uint32_t src, std::uint32_t dst) {
  ++deliveries_;
  ++nodes_.at(src).terminals;
  ++nodes_.at(dst).terminals;
}

double EdgeStats::busy_seconds(std::size_t edge, sim::SimTime t) const {
  Coverage& cov = coverage_.at(edge);
  if (t > cov.folded_t) {
    // Fold the union of open windows over (folded_t, t] into busy.
    // Sorting by start keeps the sweep a single cursor pass; windows
    // fully behind the new fold point can be dropped afterwards (their
    // ends can no longer change — releases only truncate to times at
    // or after the current fold point, see on_lease_release).
    std::sort(cov.open.begin(), cov.open.end(),
              [](const Window& a, const Window& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.ticket < b.ticket;
              });
    sim::SimTime cursor = cov.folded_t;
    for (const Window& w : cov.open) {
      const sim::SimTime s = std::max(w.start, cursor);
      const sim::SimTime e = std::min(w.end, t);
      if (e > s) {
        cov.busy += e - s;
        cursor = e;
      }
    }
    std::erase_if(cov.open, [t](const Window& w) { return w.end <= t; });
    cov.folded_t = t;
  }
  return sim::to_seconds(cov.busy);
}

void EdgeStats::claim_touched() const {
  if (touched_claimed_) {
    throw std::logic_error(
        "EdgeStats: the touched-edge feed already has a reader (one "
        "NetState per EdgeStats)");
  }
  touched_claimed_ = true;
}

void EdgeStats::take_touched(std::vector<std::size_t>& out) const {
  out.clear();
  out.swap(touched_);
  for (const std::size_t e : out) touched_flag_[e] = 0;
}

void EdgeStats::merge(const EdgeStats& other) {
  const std::size_t edges = std::min(edges_.size(), other.edges_.size());
  for (std::size_t i = 0; i < edges; ++i) {
    EdgeCounters& into = edges_[i];
    const EdgeCounters& from = other.edges_[i];
    into.leases += from.leases;
    into.blocked += from.blocked;
    into.attempts += from.attempts;
    into.deliveries += from.deliveries;
    into.admission_waits += from.admission_waits;
    into.admission_wait_s += from.admission_wait_s;
    into.fidelity.merge(from.fidelity);

    Coverage& cov = coverage_[i];
    const Coverage& ocov = other.coverage_[i];
    cov.busy += ocov.busy;
    cov.folded_t = std::max(cov.folded_t, ocov.folded_t);
    cov.open.insert(cov.open.end(), ocov.open.begin(), ocov.open.end());
    touch(i);
  }
  const std::size_t nodes = std::min(nodes_.size(), other.nodes_.size());
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_[i].swaps += other.nodes_[i].swaps;
    nodes_[i].terminals += other.nodes_[i].terminals;
  }
  sketch_.merge(other.sketch_);
  blocked_requests_ += other.blocked_requests_;
  deliveries_ += other.deliveries_;
  admission_waits_ += other.admission_waits_;
  admission_wait_s_ += other.admission_wait_s_;
  lease_count_ += other.lease_count_;
  attempt_pairs_ += other.attempt_pairs_;
  swaps_ += other.swaps_;
}

}  // namespace qlink::metrics
