#include "obs/monitor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

namespace qlink::obs {

using json::append_field;
using json::append_num;

namespace {

/// Per-interval histogram delta: just the two fields a live reader
/// needs (the full distribution stays in the end-of-run Snapshot).
void append_hist_delta(std::string& out, const char* key,
                       const metrics::Histogram& cur,
                       const metrics::Histogram& prev) {
  const std::uint64_t count = cur.count_since(prev);
  out += '"';
  out += key;
  out += "\":{";
  append_field(out, "count", count);
  out += ',';
  append_field(out, "p99", cur.percentile_since(prev, 99.0));
  out += ',';
  // Stream-cumulative extremes, as Histogram::delta_since carries them
  // (interval-local ones are not derivable from two snapshots) — exact
  // even for values the bins clamped; 0 for an empty interval.
  append_field(out, "min", count == 0 ? 0.0 : cur.min());
  out += ',';
  append_field(out, "max", count == 0 ? 0.0 : cur.max());
  out += '}';
}

}  // namespace

Monitor::Monitor(const sim::Simulator& simulator,
                 const metrics::Collector& collector, MonitorConfig config)
    : sim_(simulator), collector_(collector), config_(std::move(config)) {
  if (config_.interval <= 0) {
    throw std::invalid_argument("Monitor: interval must be positive");
  }
  if (config_.stall_consecutive == 0) {
    throw std::invalid_argument("Monitor: stall_consecutive must be >= 1");
  }
  start_t_ = sim_.now();
  last_t_ = start_t_;
  prev_ = sample();
}

Monitor::Cumulative Monitor::sample() const {
  Cumulative c;
  c.deliveries = collector_.total_pairs_delivered();
  c.events = sim_.events_processed();
  if (router_ != nullptr) {
    c.submitted = router_->stats().submitted;
    c.completed = router_->stats().completed;
    c.failed = router_->stats().failed;
  }
  c.request_latency = collector_.request_latency_hist();
  c.pair_latency = collector_.pair_latency_hist();
  c.admission_wait = collector_.admission_wait_hist();
  return c;
}

std::uint64_t Monitor::completed_total() const {
  if (router_ != nullptr) return router_->stats().completed;
  std::uint64_t done = 0;
  for (const auto p : {core::Priority::kNetworkLayer,
                       core::Priority::kCreateKeep,
                       core::Priority::kMeasureDirectly}) {
    done += collector_.kind(p).requests_completed;
  }
  return done;
}

std::size_t Monitor::backlog() const {
  if (router_ == nullptr) return 0;
  return router_->reservations().blocked() + router_->deferred_pending();
}

void Monitor::poll() {
  if (finished_) return;
  const sim::SimTime now = sim_.now();
  if (now - last_t_ < config_.interval) return;
  // Coalesce every fully elapsed interval into one record stamped at
  // the last crossed boundary; the remainder stays open.
  const sim::SimTime span =
      ((now - last_t_) / config_.interval) * config_.interval;
  emit(last_t_ + span);
}

void Monitor::finish() {
  if (finished_) return;
  const sim::SimTime now = sim_.now();
  if (now > last_t_) emit(now);

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
  out += ',';
  append_field(out, "stalled_intervals", stalled_intervals_);
  out += ',';
  append_field(out, "peak_backlog", peak_backlog_);
  out += ',';
  append_field(out, "deliveries", total_deliveries_);
  out += ',';
  append_field(out, "events", total_events_);
  out += ',';
  append_field(out, "open_requests",
               static_cast<std::uint64_t>(collector_.open_requests()));
  const auto oldest = collector_.oldest_open_created();
  out += ',';
  append_field(out, "oldest_open_age_s",
               oldest ? sim::to_seconds(last_t_ - *oldest) : 0.0);
  out += "}\n";
  finished_ = true;
}

void Monitor::emit(sim::SimTime t) {
  const Cumulative cur = sample();
  const sim::SimTime dt = t - last_t_;
  const double dt_s = sim::to_seconds(dt);
  const std::uint64_t deliveries = cur.deliveries - prev_.deliveries;
  const std::uint64_t events = cur.events - prev_.events;
  const std::uint64_t backlog_now = backlog();
  const auto oldest = collector_.oldest_open_created();
  const double oldest_age_s =
      oldest && *oldest < t ? sim::to_seconds(t - *oldest) : 0.0;
  // A starved interval is a full watch interval with zero deliveries
  // while admitted-or-bookable work waits; trailing partial intervals
  // are exempt so a short tail cannot fake one. The watchdog only
  // flags once stall_consecutive starved intervals run back-to-back
  // (a coalesced record contributes each full interval it covers).
  const bool starved =
      dt >= config_.interval && deliveries == 0 && backlog_now > 0;
  if (starved) {
    stall_run_ += static_cast<std::uint64_t>(dt / config_.interval);
  } else {
    stall_run_ = 0;
  }
  const bool stalled = starved && stall_run_ >= config_.stall_consecutive;

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
  append_field(out, "deliveries", deliveries);
  out += ',';
  append_field(out, "deliveries_per_s",
               dt_s > 0.0 ? static_cast<double>(deliveries) / dt_s : 0.0);
  out += ',';
  append_field(out, "events", events);
  out += ',';
  append_field(out, "events_per_s",
               dt_s > 0.0 ? static_cast<double>(events) / dt_s : 0.0);
  out += ',';
  append_field(out, "heap",
               static_cast<std::uint64_t>(sim_.pending()));
  out += ',';
  append_field(out, "heap_hw",
               static_cast<std::uint64_t>(sim_.heap_high_water()));
  out += ',';
  append_field(out, "open_requests",
               static_cast<std::uint64_t>(collector_.open_requests()));
  out += ',';
  append_field(out, "oldest_open_age_s", oldest_age_s);
  out += ',';
  append_hist_delta(out, "request_latency", cur.request_latency,
                    prev_.request_latency);
  out += ',';
  append_hist_delta(out, "pair_latency", cur.pair_latency,
                    prev_.pair_latency);
  out += ',';
  append_hist_delta(out, "admission_wait", cur.admission_wait,
                    prev_.admission_wait);
  if (router_ != nullptr) {
    out += ',';
    append_field(out, "submitted", cur.submitted - prev_.submitted);
    out += ',';
    append_field(out, "completed", cur.completed - prev_.completed);
    out += ',';
    append_field(out, "failed", cur.failed - prev_.failed);
    out += ',';
    append_field(out, "backlog", backlog_now);
  }
  out += ",\"stalled\":";
  out += stalled ? "true" : "false";
  if (config_.target_requests > 0) {
    const std::uint64_t done = completed_total();
    out += ',';
    append_field(out, "progress",
                 static_cast<double>(done) /
                     static_cast<double>(config_.target_requests));
    out += ",\"eta_s\":";
    const double elapsed_s = sim::to_seconds(t - start_t_);
    if (done == 0 || elapsed_s <= 0.0) {
      out += "null";
    } else if (done >= config_.target_requests) {
      append_num(out, 0.0);
    } else {
      const double rate = static_cast<double>(done) / elapsed_s;
      append_num(out,
                 static_cast<double>(config_.target_requests - done) / rate);
    }
  }
  out += "}\n";

  if (stalled) {
    ++stalled_intervals_;
    if (config_.tracer != nullptr) {
      config_.tracer->instant(
          0, "monitor", "warn", t,
          {Tracer::num_arg("backlog", backlog_now),
           Tracer::num_arg("oldest_open_age_s", oldest_age_s)});
    }
  }
  ++intervals_;
  peak_backlog_ = std::max(peak_backlog_, backlog_now);
  total_deliveries_ += deliveries;
  total_events_ += events;
  last_t_ = t;
  prev_ = cur;
}

void Monitor::write_jsonl(std::FILE* f) const {
  std::fwrite(jsonl_.data(), 1, jsonl_.size(), f);
}

}  // namespace qlink::obs
