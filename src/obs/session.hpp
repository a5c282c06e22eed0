#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "metrics/edge_stats.hpp"
#include "obs/monitor.hpp"
#include "obs/netstate.hpp"
#include "obs/trace.hpp"

/// \file session.hpp
/// One run's observers behind one object. A Session owns the run's
/// metrics::EdgeStats, its obs::NetState, an optional obs::Monitor and
/// an optional obs::Tracer; attach() wires them into a routing::Router,
/// one poll() and one finish() drive them, and the accessors hand back
/// what a bench row reports: watchdog scalars, both JSONL streams, the
/// run report and the obs::Snapshot JSON.
///
/// Every observer takes its baseline when it is created. attach() must
/// precede the first submission (NetState's interval deltas reconcile
/// with its final table only from a baseline before the first lease);
/// watch() may come later, and its Monitor counts from that call on.
/// Like the observers it owns, a Session never schedules events or
/// consumes randomness, so attaching one cannot perturb a trajectory.

namespace qlink::metrics {
class Collector;
}

namespace qlink::netlayer {
class SwapService;
}

namespace qlink::routing {
class Router;
}

namespace qlink::obs {

class Session {
 public:
  /// `trace` = own a Tracer and attach it to the router and, on the
  /// full-detail plane, to the SwapService.
  Session(const metrics::Collector& collector, NetStateConfig netstate,
          bool trace = false);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Wire the run's observers into `router` and its plane: EdgeStats,
  /// the Tracer (when tracing), per-label engine telemetry (the
  /// snapshot's engine section), and the NetState baseline.
  void attach(routing::Router& router);

  /// Add the Monitor (baseline taken now), watching the attached
  /// router's backlog. A traced session mirrors stall warnings to its
  /// Tracer unless `config.tracer` names another.
  void watch(MonitorConfig config);

  /// Poll every observer; call from existing control points only.
  void poll();
  /// Flush every observer's trailing interval and final record.
  void finish();

  bool monitored() const noexcept { return monitor_ != nullptr; }
  /// 0 without a Monitor.
  std::uint64_t stalled_intervals() const noexcept;
  std::uint64_t peak_backlog() const noexcept;
  double max_utilization() const noexcept;

  /// Empty without a Monitor.
  const std::string& monitor_jsonl() const noexcept;
  const std::string& netstate_jsonl() const noexcept;
  /// The run's Markdown report section (obs::render_run_report).
  std::string report(const std::string& title) const;
  /// The merged obs::Snapshot JSON: Collector, Router and engine, plus
  /// SwapService and quantum-backend counters on the full-detail plane.
  std::string snapshot_json() const;

  /// Null unless tracing.
  const Tracer* tracer() const noexcept { return tracer_.get(); }

 private:
  const metrics::Collector& collector_;
  NetStateConfig netstate_config_;
  routing::Router* router_ = nullptr;
  netlayer::SwapService* swap_ = nullptr;  // full-detail plane only
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<metrics::EdgeStats> edge_stats_;
  std::unique_ptr<NetState> netstate_;
  std::unique_ptr<Monitor> monitor_;
};

}  // namespace qlink::obs
