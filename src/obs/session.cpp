#include "obs/session.hpp"

#include "netlayer/swap_service.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "routing/router.hpp"

namespace qlink::obs {

Session::Session(const metrics::Collector& collector,
                 NetStateConfig netstate, bool trace)
    : collector_(collector),
      netstate_config_(std::move(netstate)),
      tracer_(trace ? std::make_unique<Tracer>() : nullptr) {}

void Session::attach(routing::Router& router) {
  router_ = &router;
  swap_ = dynamic_cast<netlayer::SwapService*>(&router.plane());
  const routing::Graph& graph = router.graph();
  // A NetState releases its EdgeStats' touched feed when destroyed, so
  // a re-attach drops the old sampler before the EdgeStats it reads.
  netstate_.reset();
  edge_stats_ = std::make_unique<metrics::EdgeStats>(graph.num_edges(),
                                                     graph.num_nodes());
  router.set_edge_stats(edge_stats_.get());
  if (tracer_ != nullptr) {
    router.set_tracer(tracer_.get());
    if (swap_ != nullptr) swap_->set_tracer(tracer_.get());
  }
  sim::Simulator& simulator = router.plane().simulator();
  simulator.set_telemetry(true);
  netstate_ = std::make_unique<NetState>(simulator, *edge_stats_,
                                         netstate_config_);
  netstate_->attach_collector(&collector_);
  netstate_->attach_graph(&graph);
}

void Session::watch(MonitorConfig config) {
  if (config.tracer == nullptr) config.tracer = tracer_.get();
  monitor_ = std::make_unique<Monitor>(router_->plane().simulator(),
                                       collector_, std::move(config));
  monitor_->attach_router(router_);
}

void Session::poll() {
  if (monitor_ != nullptr) monitor_->poll();
  netstate_->poll();
}

void Session::finish() {
  if (monitor_ != nullptr) monitor_->finish();
  netstate_->finish();
}

std::uint64_t Session::stalled_intervals() const noexcept {
  return monitor_ != nullptr ? monitor_->stalled_intervals() : 0;
}

std::uint64_t Session::peak_backlog() const noexcept {
  return monitor_ != nullptr ? monitor_->peak_backlog() : 0;
}

double Session::max_utilization() const noexcept {
  return netstate_->max_utilization();
}

const std::string& Session::monitor_jsonl() const noexcept {
  static const std::string kNone;
  return monitor_ != nullptr ? monitor_->jsonl() : kNone;
}

const std::string& Session::netstate_jsonl() const noexcept {
  return netstate_->jsonl();
}

std::string Session::report(const std::string& title) const {
  return render_run_report(router_->plane().simulator(), *edge_stats_,
                           collector_, &router_->graph(), title);
}

std::string Session::snapshot_json() const {
  Snapshot snap;
  snap.collector = &collector_;
  snap.router = &router_->stats();
  snap.simulator = &router_->plane().simulator();
  if (swap_ != nullptr) {
    snap.swap = &swap_->stats();
    snap.backend = &swap_->network()->registry().backend().stats();
  }
  return snap.json();
}

}  // namespace qlink::obs
