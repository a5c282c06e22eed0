#pragma once

#include <string>

#include "metrics/collector.hpp"
#include "metrics/histogram.hpp"
#include "netlayer/swap_service.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

/// \file snapshot.hpp
/// One merged observability surface (ISSUE 6): everything a run knows
/// about itself — Collector distributions, Router and SwapService
/// counters, quantum-backend counters, and engine telemetry — rendered
/// as a single JSON object. Benches embed it under an "obs" key of
/// their --json output so every surface travels together; dashboards
/// and bench_diff read scalar percentiles straight out of it.
///
/// All sources are optional (null pointers are skipped), so the same
/// type serves single-link benches (no router) and routed ones.

namespace qlink::obs {

struct Snapshot {
  const metrics::Collector* collector = nullptr;
  const routing::Router::Stats* router = nullptr;
  const netlayer::SwapService::Stats* swap = nullptr;
  const qstate::BackendStats* backend = nullptr;
  const sim::Simulator* simulator = nullptr;

  /// The merged JSON object. Deterministic: fixed key order, "%.17g"
  /// doubles, and label stats sorted by label.
  std::string json() const;
};

/// A histogram's summary as a JSON object:
/// {"count":..,"mean":..,"p50":..,"p90":..,"p99":..,
///  "underflow":..,"overflow":..}.
std::string histogram_json(const metrics::Histogram& h);

}  // namespace qlink::obs
