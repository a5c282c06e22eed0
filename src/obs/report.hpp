#pragma once

#include <cstddef>
#include <string>

/// \file report.hpp
/// Markdown run-report renderer (ISSUE 8): one human-readable section
/// per monitored run — summary counters, the hottest edges with their
/// utilization and contention, a stall/contention analysis, and the
/// latency phase decomposition with the slowest requests' phase
/// vectors. obs::Session::report renders each run's section while the
/// run is alive; the bench harness concatenates them behind
/// `--report`. This is the only report renderer.
///
/// Rendering only reads the same deterministic state the JSONL
/// emitters read, so two same-seed runs produce byte-identical
/// Markdown.

namespace qlink::metrics {
class Collector;
class EdgeStats;
}

namespace qlink::routing {
class Graph;
}

namespace qlink::sim {
class Simulator;
}

namespace qlink::obs {

struct RunReportOptions {
  /// Section heading ("### <title>"); empty = no heading.
  std::string title;
  /// Rows in the hot-edge table.
  std::size_t top_k = 8;
  /// Rows in the slowest-requests table.
  std::size_t slowest = 8;
};

/// Render one run's Markdown section from live observability state.
/// `graph` (optional) names edge endpoints; null leaves ids only.
std::string render_run_report(const sim::Simulator& simulator,
                              const metrics::EdgeStats& stats,
                              const metrics::Collector& collector,
                              const routing::Graph* graph,
                              const RunReportOptions& options = {});

}  // namespace qlink::obs
