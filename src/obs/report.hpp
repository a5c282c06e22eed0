#pragma once

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

/// Render one run's Markdown section from live observability state.
/// `graph` (optional) names edge endpoints; null leaves ids only.
/// `title` is the section heading ("### <title>"); empty = no heading.
/// The hot-edge and slowest-request tables hold up to 8 rows each.
std::string render_run_report(const sim::Simulator& simulator,
                              const metrics::EdgeStats& stats,
                              const metrics::Collector& collector,
                              const routing::Graph* graph,
                              const std::string& title = {});

}  // namespace qlink::obs
