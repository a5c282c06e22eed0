#include "obs/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "metrics/collector.hpp"
#include "metrics/edge_stats.hpp"
#include "routing/graph.hpp"
#include "sim/simulator.hpp"

namespace qlink::obs {

namespace {

/// Rows in each of the hot-edge and slowest-requests tables.
constexpr std::size_t kTableRows = 8;

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

/// Fixed-precision decimal (%.*f, not %g): stable column widths and no
/// exponent notation in the tables.
std::string fmt_f(double v, int precision = 4) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void hist_row(std::string& out, const char* name,
              const metrics::Histogram& h) {
  out += "| ";
  out += name;
  out += " | " + fmt_u64(h.count());
  out += " | " + fmt_f(h.mean(), 6);
  out += " | " + fmt_f(h.p50(), 6);
  out += " | " + fmt_f(h.p90(), 6);
  out += " | " + fmt_f(h.p99(), 6);
  out += " | " + fmt_f(h.max(), 6);
  out += " |\n";
}

}  // namespace

std::string render_run_report(const sim::Simulator& simulator,
                              const metrics::EdgeStats& stats,
                              const metrics::Collector& collector,
                              const routing::Graph* graph,
                              const std::string& title) {
  const sim::SimTime now = simulator.now();
  const double elapsed_s = sim::to_seconds(now);

  std::string out;
  if (!title.empty()) {
    out += "### ";
    out += title;
    out += "\n\n";
  }

  // -- Summary ------------------------------------------------------------
  out += "| metric | value |\n|---|---|\n";
  out += "| sim time (s) | " + fmt_f(elapsed_s, 6) + " |\n";
  out += "| pairs delivered | " +
         fmt_u64(collector.total_pairs_delivered()) + " |\n";
  out += "| requests blocked | " + fmt_u64(collector.requests_blocked()) +
         " |\n";
  out += "| lease placements | " + fmt_u64(stats.lease_count()) + " |\n";
  out += "| CREATE attempt pairs | " + fmt_u64(stats.attempt_pairs()) +
         " |\n";
  out += "| swaps | " + fmt_u64(stats.swaps()) + " |\n";
  out += "| admission waits | " + fmt_u64(stats.admission_waits()) +
         " (sum " + fmt_f(stats.admission_wait_seconds(), 6) + " s) |\n";
  out += "\n";

  // -- Hot edges ------------------------------------------------------------
  struct Row {
    std::size_t edge = 0;
    double util = 0.0;
  };
  std::vector<Row> rows;
  for (std::size_t e = 0; e < stats.num_edges(); ++e) {
    const metrics::EdgeStats::EdgeCounters& c = stats.edge(e);
    const double util =
        elapsed_s > 0.0 ? stats.busy_seconds(e, now) / elapsed_s : 0.0;
    if (util <= 0.0 && c.leases == 0 && c.blocked == 0 && c.attempts == 0) {
      continue;
    }
    rows.push_back({e, util});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.util != b.util) return a.util > b.util;
    return a.edge < b.edge;
  });
  if (rows.size() > kTableRows) rows.resize(kTableRows);

  out += "**Hot edges** (by lease utilization)\n\n";
  out += "| edge | link | util | leases | blocked | attempts | deliveries "
         "| wait_s | fidelity |\n|---|---|---|---|---|---|---|---|---|\n";
  for (const Row& r : rows) {
    const metrics::EdgeStats::EdgeCounters& c = stats.edge(r.edge);
    out += "| " + fmt_u64(r.edge) + " | ";
    if (graph != nullptr) {
      const routing::Graph::Edge& ge = graph->edge(r.edge);
      out += fmt_u64(ge.a) + "-" + fmt_u64(ge.b);
    } else {
      out += "-";
    }
    out += " | " + fmt_f(r.util);
    out += " | " + fmt_u64(c.leases);
    out += " | " + fmt_u64(c.blocked);
    out += " | " + fmt_u64(c.attempts);
    out += " | " + fmt_u64(c.deliveries);
    out += " | " + fmt_f(c.admission_wait_s);
    out += " | " + fmt_f(c.fidelity.count() > 0 ? c.fidelity.mean() : 0.0);
    out += " |\n";
  }
  if (rows.empty()) out += "| - | - | - | - | - | - | - | - | - |\n";
  out += "\n";

  // -- Stall / contention analysis ----------------------------------------
  std::uint64_t edge_blocked = 0, max_edge_blocked = 0;
  std::size_t max_blocked_edge = 0;
  for (std::size_t e = 0; e < stats.num_edges(); ++e) {
    const std::uint64_t b = stats.edge(e).blocked;
    edge_blocked += b;
    if (b > max_edge_blocked) {
      max_edge_blocked = b;
      max_blocked_edge = e;
    }
  }
  out += "**Contention**: " + fmt_u64(collector.requests_blocked()) +
         " blocked requests, " + fmt_u64(edge_blocked) +
         " blocked-arrival edge footprints";
  if (max_edge_blocked > 0) {
    out += " (hottest: edge " + fmt_u64(max_blocked_edge) + " with " +
           fmt_u64(max_edge_blocked) + ")";
  }
  out += "; " + fmt_u64(collector.admission_steals()) + " steals, " +
         fmt_u64(collector.hol_holds()) + " HOL holds, " +
         fmt_u64(collector.deferrals()) + " deferrals.\n\n";

  // -- Phase decomposition --------------------------------------------------
  out += "**Latency phases** (seconds)\n\n";
  out += "| phase | count | mean | p50 | p90 | p99 | max |\n"
         "|---|---|---|---|---|---|---|\n";
  for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
    const auto phase = static_cast<metrics::Phase>(p);
    hist_row(out, metrics::phase_name(phase), collector.phase_hist(phase));
  }
  out += "\n";

  const auto& slowest = collector.slowest_requests();
  if (!slowest.empty()) {
    out += "**Slowest requests**\n\n";
    out += "| origin | id | total_s";
    for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
      out += " | ";
      out += metrics::phase_name(static_cast<metrics::Phase>(p));
    }
    out += " |\n|---|---|---";
    for (std::size_t p = 0; p < metrics::kNumPhases; ++p) out += "|---";
    out += "|\n";
    const std::size_t n = std::min(kTableRows, slowest.size());
    for (std::size_t i = 0; i < n; ++i) {
      const metrics::Collector::SlowRequest& s = slowest[i];
      out += "| " + fmt_u64(s.origin) + " | " + fmt_u64(s.id) + " | " +
             fmt_f(s.total_s, 6);
      for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
        out += " | " + fmt_f(s.phase_s[p], 6);
      }
      out += " |\n";
    }
    out += "\n";
  }

  return out;
}

}  // namespace qlink::obs
