#include "obs/snapshot.hpp"

#include "obs/json.hpp"

namespace qlink::obs {

using json::append_field;

std::string histogram_json(const metrics::Histogram& h) {
  std::string out = "{";
  append_field(out, "count", h.count());
  out += ',';
  append_field(out, "mean", h.mean());
  out += ',';
  append_field(out, "p50", h.p50());
  out += ',';
  append_field(out, "p90", h.p90());
  out += ',';
  append_field(out, "p99", h.p99());
  out += ',';
  append_field(out, "min", h.min());
  out += ',';
  append_field(out, "max", h.max());
  out += ',';
  append_field(out, "underflow", h.underflow());
  out += ',';
  append_field(out, "overflow", h.overflow());
  out += '}';
  return out;
}

std::string Snapshot::json() const {
  std::string out = "{";
  bool first = true;
  const auto section = [&out, &first](const char* key) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
  };

  if (router != nullptr) {
    section("router");
    out += '{';
    append_field(out, "submitted", router->submitted);
    out += ',';
    append_field(out, "admitted", router->admitted);
    out += ',';
    append_field(out, "blocked", router->blocked);
    out += ',';
    append_field(out, "deferred", router->deferred);
    out += ',';
    append_field(out, "rejected", router->rejected);
    out += ',';
    append_field(out, "completed", router->completed);
    out += ',';
    append_field(out, "failed", router->failed);
    out += ',';
    append_field(out, "rerouted", router->rerouted);
    out += ',';
    append_field(out, "abandoned", router->abandoned);
    out += ',';
    append_field(out, "pairs_delivered", router->pairs_delivered);
    out += '}';
  }

  if (swap != nullptr) {
    section("swap");
    out += '{';
    append_field(out, "requests", swap->requests);
    out += ',';
    append_field(out, "resubmissions", swap->resubmissions);
    out += ',';
    append_field(out, "link_pairs_consumed", swap->link_pairs_consumed);
    out += ',';
    append_field(out, "swaps", swap->swaps);
    out += ',';
    append_field(out, "pairs_delivered", swap->pairs_delivered);
    out += ',';
    append_field(out, "errors", swap->errors);
    out += ',';
    append_field(out, "unclaimed_oks", swap->unclaimed_oks);
    out += '}';
  }

  if (backend != nullptr) {
    section("backend");
    out += '{';
    append_field(out, "fast_ops", backend->fast_ops);
    out += ',';
    append_field(out, "dense_ops", backend->dense_ops);
    out += ',';
    append_field(out, "promotions", backend->promotions);
    out += ',';
    append_field(out, "demotions", backend->demotions);
    out += ',';
    append_field(out, "pool_hits", backend->pool_hits);
    out += ',';
    append_field(out, "pool_misses", backend->pool_misses);
    out += '}';
  }

  if (collector != nullptr) {
    section("distributions");
    out += "{\"request_latency_s\":";
    out += histogram_json(collector->request_latency_hist());
    out += ",\"pair_latency_s\":";
    out += histogram_json(collector->pair_latency_hist());
    out += ",\"admission_wait_s\":";
    out += histogram_json(collector->admission_wait_hist());
    out += ",\"fidelity\":";
    out += histogram_json(collector->fidelity_hist());
    out += '}';

    // Latency phase decomposition (ISSUE 8): per-phase distributions
    // over the same request stream, plus the slowest requests' phase
    // vectors (deterministic order: total desc, origin/id asc).
    section("phases");
    out += '{';
    for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
      if (p > 0) out += ',';
      out += '"';
      out += metrics::phase_name(static_cast<metrics::Phase>(p));
      out += "\":";
      out += histogram_json(
          collector->phase_hist(static_cast<metrics::Phase>(p)));
    }
    out += ",\"slowest\":[";
    bool first_slow = true;
    for (const metrics::Collector::SlowRequest& s :
         collector->slowest_requests()) {
      if (!first_slow) out += ',';
      first_slow = false;
      out += '{';
      append_field(out, "origin", static_cast<std::uint64_t>(s.origin));
      out += ',';
      append_field(out, "id", static_cast<std::uint64_t>(s.id));
      out += ',';
      append_field(out, "total_s", s.total_s);
      for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
        out += ',';
        append_field(out, metrics::phase_name(static_cast<metrics::Phase>(p)),
                     s.phase_s[p]);
      }
      out += '}';
    }
    out += "]}";
  }

  if (simulator != nullptr) {
    section("engine");
    out += '{';
    append_field(out, "events_processed", simulator->events_processed());
    out += ',';
    append_field(out, "heap_high_water",
                 static_cast<std::uint64_t>(simulator->heap_high_water()));
    out += ",\"labels\":[";
    bool first_label = true;
    for (const auto& stat : simulator->label_stats()) {
      if (!first_label) out += ',';
      first_label = false;
      out += "{\"label\":\"";
      out += stat.label;  // labels are static literals: no escaping needed
      out += "\",";
      append_field(out, "count", stat.count);
      if (simulator->profiler()) {
        out += ',';
        append_field(out, "wall_seconds", stat.wall_seconds);
      }
      out += '}';
    }
    out += "]}";
  }

  out += '}';
  return out;
}

}  // namespace qlink::obs
