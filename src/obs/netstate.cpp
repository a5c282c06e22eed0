#include "obs/netstate.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/collector.hpp"
#include "obs/json.hpp"
#include "routing/graph.hpp"
#include "sim/simulator.hpp"

namespace qlink::obs {

using json::append_field;

NetState::NetState(const sim::Simulator& simulator,
                   const metrics::EdgeStats& stats, NetStateConfig config)
    : sim_(simulator), stats_(stats), config_(std::move(config)) {
  if (config_.interval <= 0) {
    throw std::invalid_argument("NetState: interval must be positive");
  }
  stats_.claim_touched();
  start_t_ = sim_.now();
  last_t_ = start_t_;
  // The baseline reads every edge, so edges touched before now are in
  // it already.
  stats_.take_touched(visit_);
  const std::size_t edges = stats_.num_edges();
  prev_.reserve(edges);
  start_busy_s_.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    prev_.push_back(sample(e, start_t_));
    start_busy_s_.push_back(prev_.back().busy_s);
    if (stats_.has_open_lease(e)) open_.push_back(e);
  }
}

NetState::~NetState() { stats_.release_touched(); }

NetState::EdgeSnap NetState::sample(std::size_t edge, sim::SimTime t) const {
  const metrics::EdgeStats::EdgeCounters& c = stats_.edge(edge);
  return EdgeSnap{stats_.busy_seconds(edge, t), c.leases, c.blocked,
                  c.attempts, c.deliveries};
}

void NetState::poll() {
  if (finished_) return;
  const sim::SimTime now = sim_.now();
  if (now - last_t_ < config_.interval) return;
  const sim::SimTime span =
      ((now - last_t_) / config_.interval) * config_.interval;
  emit(last_t_ + span);
}

void NetState::emit(sim::SimTime t) {
  // Only an edge a hook touched since the last record, or one whose
  // lease window was still open after it, can differ from prev_.
  stats_.take_touched(visit_);
  visit_.insert(visit_.end(), open_.begin(), open_.end());
  std::sort(visit_.begin(), visit_.end());
  visit_.erase(std::unique(visit_.begin(), visit_.end()), visit_.end());
  open_.clear();

  const sim::SimTime dt = t - last_t_;
  const double dt_s = sim::to_seconds(dt);

  struct HotEdge {
    std::size_t edge = 0;
    double util = 0.0;
    std::uint64_t leases = 0;
    std::uint64_t blocked = 0;
    std::uint64_t attempts = 0;
    std::uint64_t deliveries = 0;
  };
  std::vector<HotEdge> active;
  std::uint64_t leases = 0, blocked = 0, attempts = 0, deliveries = 0;
  // Unvisited edges contribute util +0.0, and adding +0.0 leaves a
  // double unchanged, so summing the visited edges in index order gives
  // the full scan's util_sum bit for bit.
  double util_sum = 0.0, util_max = 0.0;
  for (const std::size_t e : visit_) {
    const EdgeSnap cur = sample(e, t);
    EdgeSnap& prev = prev_[e];
    if (stats_.has_open_lease(e)) open_.push_back(e);
    HotEdge h;
    h.edge = e;
    // busy is a union of windows clipped to the interval, so the ratio
    // is <= 1 up to double round-off: the two cumulative busy_s values
    // were converted separately, and their difference can exceed dt_s
    // by an ulp. Clamp so the emitted util is in [0, 1] exactly.
    h.util = dt_s > 0.0 ? std::min(1.0, (cur.busy_s - prev.busy_s) / dt_s)
                        : 0.0;
    h.leases = cur.leases - prev.leases;
    h.blocked = cur.blocked - prev.blocked;
    h.attempts = cur.attempts - prev.attempts;
    h.deliveries = cur.deliveries - prev.deliveries;
    prev = cur;
    leases += h.leases;
    blocked += h.blocked;
    attempts += h.attempts;
    deliveries += h.deliveries;
    util_sum += h.util;
    util_max = std::max(util_max, h.util);
    if (h.util > 0.0 || h.leases > 0 || h.blocked > 0 || h.attempts > 0 ||
        h.deliveries > 0) {
      active.push_back(h);
    }
  }
  std::sort(active.begin(), active.end(),
            [](const HotEdge& a, const HotEdge& b) {
              if (a.util != b.util) return a.util > b.util;
              return a.edge < b.edge;
            });
  if (active.size() > kTopK) active.resize(kTopK);

  std::string& out = jsonl_;
  out += '{';
  if (!config_.run.empty()) {
    out += "\"run\":\"";
    out += config_.run;
    out += "\",";
  }
  append_field(out, "i", intervals_);
  out += ',';
  append_field(out, "t", static_cast<std::uint64_t>(t));
  out += ',';
  append_field(out, "dt", static_cast<std::uint64_t>(dt));
  out += ',';
  append_field(out, "leases", leases);
  out += ',';
  append_field(out, "blocked", blocked);
  out += ',';
  append_field(out, "attempts", attempts);
  out += ',';
  append_field(out, "deliveries", deliveries);
  out += ',';
  const std::size_t edges = stats_.num_edges();
  append_field(out, "util_mean",
               edges == 0 ? 0.0 : util_sum / static_cast<double>(edges));
  out += ',';
  append_field(out, "util_max", util_max);
  out += ",\"hot\":[";
  for (std::size_t i = 0; i < active.size(); ++i) {
    const HotEdge& h = active[i];
    if (i > 0) out += ',';
    out += '{';
    append_field(out, "edge", static_cast<std::uint64_t>(h.edge));
    if (graph_ != nullptr) {
      const routing::Graph::Edge& ge = graph_->edge(h.edge);
      out += ',';
      append_field(out, "a", static_cast<std::uint64_t>(ge.a));
      out += ',';
      append_field(out, "b", static_cast<std::uint64_t>(ge.b));
    }
    out += ',';
    append_field(out, "util", h.util);
    out += ',';
    append_field(out, "leases", h.leases);
    out += ',';
    append_field(out, "blocked", h.blocked);
    out += ',';
    append_field(out, "attempts", h.attempts);
    out += ',';
    append_field(out, "deliveries", h.deliveries);
    out += '}';
  }
  out += "]}\n";

  max_utilization_ = std::max(max_utilization_, util_max);
  ++intervals_;
  last_t_ = t;
}

void NetState::finish() {
  if (finished_) return;
  const sim::SimTime now = sim_.now();
  if (now > last_t_) emit(now);
  const double elapsed_s = sim::to_seconds(last_t_ - start_t_);

  std::string& out = jsonl_;
  out += '{';
  if (!config_.run.empty()) {
    out += "\"run\":\"";
    out += config_.run;
    out += "\",";
  }
  out += "\"final\":true,";
  append_field(out, "t", static_cast<std::uint64_t>(last_t_));
  out += ',';
  append_field(out, "intervals", intervals_);

  out += ",\"edges\":[";
  for (std::size_t e = 0; e < stats_.num_edges(); ++e) {
    const metrics::EdgeStats::EdgeCounters& c = stats_.edge(e);
    const double busy_s = stats_.busy_seconds(e, last_t_) - start_busy_s_[e];
    // Same ulp-level clamp as the interval path: coverage cannot
    // exceed elapsed sim time, but the double division can.
    const double util =
        elapsed_s > 0.0 ? std::min(1.0, busy_s / elapsed_s) : 0.0;
    max_utilization_ = std::max(max_utilization_, util);
    if (e > 0) out += ',';
    out += '{';
    append_field(out, "edge", static_cast<std::uint64_t>(e));
    if (graph_ != nullptr) {
      const routing::Graph::Edge& ge = graph_->edge(e);
      out += ',';
      append_field(out, "a", static_cast<std::uint64_t>(ge.a));
      out += ',';
      append_field(out, "b", static_cast<std::uint64_t>(ge.b));
    }
    out += ',';
    append_field(out, "util", util);
    out += ',';
    append_field(out, "busy_s", busy_s);
    out += ',';
    append_field(out, "leases", c.leases);
    out += ',';
    append_field(out, "blocked", c.blocked);
    out += ',';
    append_field(out, "attempts", c.attempts);
    out += ',';
    append_field(out, "deliveries", c.deliveries);
    out += ',';
    append_field(out, "admission_waits", c.admission_waits);
    out += ',';
    append_field(out, "admission_wait_s", c.admission_wait_s);
    out += ',';
    append_field(out, "fidelity_mean", c.fidelity.mean());
    out += '}';
  }

  out += "],\"nodes\":[";
  bool first_node = true;
  for (std::size_t n = 0; n < stats_.num_nodes(); ++n) {
    const metrics::EdgeStats::NodeCounters& c = stats_.node(n);
    if (c.swaps == 0 && c.terminals == 0) continue;  // active only
    if (!first_node) out += ',';
    first_node = false;
    out += '{';
    append_field(out, "node", static_cast<std::uint64_t>(n));
    out += ',';
    append_field(out, "swaps", c.swaps);
    out += ',';
    append_field(out, "terminals", c.terminals);
    out += '}';
  }

  const metrics::SpaceSaving& sketch = stats_.hot_edges();
  out += "],\"hot_edges\":[";
  const auto top = sketch.top(kTopK);
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out += ',';
    out += '{';
    append_field(out, "edge", top[i].key);
    out += ',';
    append_field(out, "count", top[i].count);
    out += ',';
    append_field(out, "error", top[i].error);
    out += '}';
  }
  out += "],\"sketch\":{";
  append_field(out, "capacity",
               static_cast<std::uint64_t>(sketch.capacity()));
  out += ',';
  append_field(out, "total_weight", sketch.total_weight());
  out += ',';
  append_field(out, "evictions", sketch.evictions());
  out += ",\"exact\":";
  out += sketch.exact() ? "true" : "false";

  out += "},\"totals\":{";
  append_field(out, "leases", stats_.lease_count());
  out += ',';
  append_field(out, "attempt_pairs", stats_.attempt_pairs());
  out += ',';
  append_field(out, "swaps", stats_.swaps());
  out += ',';
  append_field(out, "blocked_requests", stats_.blocked_requests());
  out += ',';
  append_field(out, "deliveries", stats_.deliveries());
  out += ',';
  append_field(out, "admission_waits", stats_.admission_waits());
  out += ',';
  append_field(out, "admission_wait_s", stats_.admission_wait_seconds());
  out += '}';

  if (collector_ != nullptr) {
    out += ",\"collector\":{";
    append_field(out, "pairs_delivered",
                 collector_->total_pairs_delivered());
    out += ',';
    append_field(out, "requests_blocked", collector_->requests_blocked());
    out += ',';
    append_field(out, "admission_waits",
                 collector_->admission_wait().count());
    out += ',';
    append_field(out, "admission_wait_s",
                 collector_->admission_wait().mean() *
                     static_cast<double>(collector_->admission_wait().count()));
    out += '}';
  }

  out += ',';
  append_field(out, "max_utilization", max_utilization_);
  out += "}\n";
  finished_ = true;
}

void NetState::write_jsonl(std::FILE* f) const {
  std::fwrite(jsonl_.data(), 1, jsonl_.size(), f);
}

}  // namespace qlink::obs
