// qlinkbench: the repository's end-to-end + per-layer benchmark binary.
//
//   qlinkbench --workload W --seed K [--seconds S] [--trace DIR]
//              [--obs on|off] [--parallel auto|off] [--scale F]
//
// One workload per process. A workload is a fixed list of instances,
// each seeded from (K, instance index). The binary first runs every
// instance once -- the model pass, whose simulated outputs are a pure
// function of K -- and then keeps cycling through the instances until S
// host seconds have passed since the first one started. Every repeat
// must reproduce its instance's trajectory digest.
//
// Host timings are taken per instance run (setup and timed phase), so
// benchmark/run.py can report medians. The layers are measured from
// outside, through public calls only: Stats structs, Simulator label
// telemetry and profiler, and spans this file records around the calls
// it makes into each layer (setup, run_for chunks, observer polls, and,
// in a traced run, every entanglement-plane call through TimedPlane).
//
// --trace DIR turns on telemetry + the profiler on every simulator and
// shard, routes the Router through TimedPlane and writes
// DIR/trace_<workload>.json (Chrome trace-event format).
// --obs off detaches EdgeStats/Monitor/NetState (flow-scale only),
// --parallel auto runs the islands on threads (islands only), --scale
// multiplies every instance's size. These three exist for the
// comparison legs of a traced run.py invocation.
//
// The last stdout line is one JSON object with raw timings, model
// outputs, deterministic counters, label stats and span totals;
// benchmark/run.py turns it into named metrics and checks it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "metrics/collector.hpp"
#include "metrics/edge_stats.hpp"
#include "net/channel.hpp"
#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/monitor.hpp"
#include "obs/netstate.hpp"
#include "routing/router.hpp"
#include "sim/sharded_engine.hpp"
#include "workload/arrival.hpp"
#include "workload/workload.hpp"

using namespace qlink;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every routed workload operates every link at this CREATE floor, and
/// the dragonfly workloads request this end-to-end fidelity. At a 0.8
/// floor every pair they deliver meets 0.4; at 0.7 some fall below it.
constexpr double kMinFidelity = 0.4;
constexpr double kFloorMenu[] = {0.8};

/// Host-side loop granularity in simulated time: the run loops advance
/// the clock in chunks of this size and poll observers in between.
constexpr sim::SimTime kChunk = sim::duration::milliseconds(100);

/// Simulated-time backstop for run-to-completion workloads; hitting it
/// leaves requests unsettled, which run.py reports as a failed check.
constexpr double kCapSeconds = 3600.0;

/// An arrival time no run reaches. Arrival streams end by returning it
/// rather than through WorkloadDriver's max_requests, which stops asking
/// for arrivals and would leave the last admission span open.
constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max() / 4;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance) {
  return splitmix64(seed * 0x100000001b3ULL + instance);
}

// ---- Trajectory digest ------------------------------------------------

/// FNV-1a over the simulated outputs of a run. Event counts stay out:
/// an engine change that removes idle events legitimately changes them
/// without changing what the network did.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const metrics::Collector& c) {
    for (const core::Priority p :
         {core::Priority::kNetworkLayer, core::Priority::kCreateKeep,
          core::Priority::kMeasureDirectly}) {
      const auto& k = c.kind(p);
      add(k.requests_submitted);
      add(k.requests_completed);
      add(k.pairs_delivered);
      add(k.fidelity.mean());
      add(k.request_latency_s.mean());
    }
  }
  void add(const routing::Router::Stats& s) {
    for (const std::uint64_t v :
         {s.submitted, s.admitted, s.blocked, s.deferred,
          static_cast<std::uint64_t>(s.deferred_wait_total), s.rejected,
          s.completed, s.failed, s.rerouted, s.abandoned,
          s.pairs_delivered}) {
      add(v);
    }
  }
};

// ---- Spans ------------------------------------------------------------

/// Host-time spans recorded around the calls this file makes into each
/// layer. Totals (count, total, self = duration minus child spans) are
/// aggregated per name; a traced run also keeps the first kLogCap spans
/// for the Chrome trace. Parents are per thread, so spans recorded on a
/// sharded engine's worker threads are roots of their own.
class Spans {
 public:
  struct Total {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  static constexpr std::size_t kLogCap = 200000;

  explicit Spans(bool keep_log) : keep_log_(keep_log) {}

  void open(const char* name) {
    stack().push_back(
        Open{name, now_s(), 0.0, next_id_.fetch_add(1), thread_index()});
  }

  void close() {
    auto& st = stack();
    const Open o = st.back();
    st.pop_back();
    const double end = now_s();
    const double dur = end - o.start;
    std::int64_t parent = -1;
    if (!st.empty()) {
      st.back().child_s += dur;
      parent = st.back().id;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    Total& t = totals_[o.name];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - o.child_s;
    if (keep_log_ && log_.size() < kLogCap) {
      log_.push_back(Record{o.name, o.start, end, o.id, parent, o.tid});
    }
  }

  std::map<std::string, Total> totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, Total> out;
    for (const auto& [name, t] : totals_) {
      Total& m = out[name];
      m.count += t.count;
      m.total_s += t.total_s;
      m.self_s += t.self_s;
    }
    return out;
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const Record& r = log_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %lld, \"parent\": %lld}}%s\n",
                   r.name, r.tid, r.start * 1e6, (r.end - r.start) * 1e6,
                   static_cast<long long>(r.id),
                   static_cast<long long>(r.parent),
                   i + 1 < log_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    const char* name;
    double start;
    double child_s;
    std::int64_t id;
    unsigned tid;
  };
  struct Record {
    const char* name;
    double start;
    double end;
    std::int64_t id;
    std::int64_t parent;
    unsigned tid;
  };

  static std::vector<Open>& stack() {
    thread_local std::vector<Open> st;
    return st;
  }
  static unsigned thread_index() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next.fetch_add(1);
    return id;
  }
  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  const bool keep_log_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::map<const char*, Total> totals_;  // keyed by string literal
  std::vector<Record> log_;
};

/// RAII span; a null Spans makes it a no-op.
class Span {
 public:
  Span(Spans* spans, const char* name) : spans_(spans) {
    if (spans_ != nullptr) spans_->open(name);
  }
  ~Span() {
    if (spans_ != nullptr) spans_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
};

// ---- Traced-run seams -------------------------------------------------

/// An EntanglementPlane that forwards every call to the real plane and
/// records a span around submit and release and around the deliver and
/// error handlers the Router installs. A submit made inside one of those
/// handlers is the Router draining its blocked queue ("plane.drain_submit");
/// any other is an admission ("plane.submit").
class TimedPlane final : public netlayer::EntanglementPlane {
 public:
  TimedPlane(netlayer::EntanglementPlane& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  sim::EngineRef engine_ref() noexcept override {
    return inner_.engine_ref();
  }
  sim::Simulator& simulator() noexcept override {
    return inner_.simulator();
  }
  std::size_t num_links() const noexcept override {
    return inner_.num_links();
  }
  std::size_t num_nodes() const noexcept override {
    return inner_.num_nodes();
  }
  std::pair<std::uint32_t, std::uint32_t> endpoints(
      std::size_t link) const override {
    return inner_.endpoints(link);
  }
  std::uint32_t submit(const netlayer::E2eRequest& request,
                       const std::vector<netlayer::Hop>& route,
                       std::span<const double> hop_floors = {}) override {
    Span s(&spans_, in_handler_ > 0 ? "plane.drain_submit" : "plane.submit");
    return inner_.submit(request, route, hop_floors);
  }
  void release(const netlayer::E2eOk& ok) override {
    Span s(&spans_, "plane.release");
    inner_.release(ok);
  }
  void set_deliver_handler(DeliverFn fn) override {
    inner_.set_deliver_handler(
        [this, fn = std::move(fn)](const netlayer::E2eOk& ok) {
          ++deliveries_;
          Span s(&spans_, "router.deliver");
          ++in_handler_;
          fn(ok);
          --in_handler_;
        });
  }
  void set_error_handler(ErrorFn fn) override {
    inner_.set_error_handler(
        [this, fn = std::move(fn)](const netlayer::E2eErr& err) {
          Span s(&spans_, "router.error");
          ++in_handler_;
          fn(err);
          --in_handler_;
        });
  }
  void set_edge_stats(metrics::EdgeStats* stats) noexcept override {
    inner_.set_edge_stats(stats);
  }
  core::Link::RateEstimate estimate_link(std::size_t link,
                                         double floor) override {
    return inner_.estimate_link(link, floor);
  }
  double link_delay_s(std::size_t link) const override {
    return inner_.link_delay_s(link);
  }
  core::Link::TestRoundEstimate measured_estimate(
      std::size_t link) const override {
    return inner_.measured_estimate(link);
  }
  netlayer::QuantumNetwork* network() noexcept override {
    return inner_.network();
  }

  std::uint64_t deliveries() const noexcept { return deliveries_; }

 private:
  netlayer::EntanglementPlane& inner_;
  Spans& spans_;
  int in_handler_ = 0;
  std::uint64_t deliveries_ = 0;
};

/// Wraps the workload's arrival process: ends the stream after `cap`
/// requests, and in a traced run records the Router's admission of each
/// arrival as the "router.submit" span. WorkloadDriver draws the shape,
/// submits through the Router, then asks for the next arrival, so the
/// span runs from sample_shape's return to the next next_arrival call.
class Arrivals final : public workload::ArrivalProcess {
 public:
  Arrivals(std::shared_ptr<workload::ArrivalProcess> inner,
           std::uint64_t cap, Spans* spans)
      : inner_(std::move(inner)), cap_(cap), spans_(spans) {}

  sim::SimTime next_arrival(sim::Random& random,
                            sim::SimTime now) const override {
    if (open_) {
      spans_->close();
      open_ = false;
    }
    const sim::SimTime at = inner_->next_arrival(random, now);
    return issued_ < cap_ ? at : kNever;
  }
  workload::RequestShape sample_shape(sim::Random& random,
                                      sim::SimTime now) const override {
    ++issued_;
    workload::RequestShape shape = inner_->sample_shape(random, now);
    if (spans_ != nullptr) {
      spans_->open("router.submit");
      open_ = true;
    }
    return shape;
  }
  double mean_rate_hz() const override { return inner_->mean_rate_hz(); }

 private:
  std::shared_ptr<workload::ArrivalProcess> inner_;
  std::uint64_t cap_;
  Spans* spans_;
  mutable std::uint64_t issued_ = 0;
  mutable bool open_ = false;
};

// ---- Run bookkeeping ---------------------------------------------------

struct Ctx {
  bool traced = false;
  bool obs = true;
  bool parallel = false;
  Spans* spans = nullptr;  // always set; keeps a log only when traced
};

/// One run of one instance.
struct Instance {
  std::uint64_t digest = 0;
  double setup_s = 0.0;  // first construction call -> first event
  double run_s = 0.0;    // the timed phase
  std::uint64_t completed = 0;
};

struct LabelTotal {
  std::uint64_t count = 0;
  double wall_s = 0.0;
};

/// What the model pass accumulates across instances.
struct Model {
  metrics::Collector pooled;
  metrics::Collector twin;  // grid-full's flow twin
  std::map<std::string, double> counters;
  std::map<std::string, LabelTotal> labels;
  double sim_s = 0.0;
  double min_fidelity = 0.0;

  void add_labels(const sim::Simulator& sim) {
    for (const auto& ls : sim.label_stats()) {
      LabelTotal& t = labels[ls.label];
      t.count += ls.count;
      t.wall_s += ls.wall_seconds;
    }
  }
  void add_egps(core::Link& link) {
    for (core::Egp* egp : {&link.egp_a(), &link.egp_b()}) {
      const auto& s = egp->stats();
      counters["core.egp_attempts"] += static_cast<double>(s.attempts);
      counters["core.egp_successes"] += static_cast<double>(s.successes);
      counters["core.egp_errors"] += static_cast<double>(s.errors);
      counters["core.dqp_retransmissions"] +=
          static_cast<double>(egp->queue().retransmissions());
    }
  }
  void add_backend(const quantum::QuantumRegistry& registry) {
    const auto& s = registry.backend().stats();
    counters["qstate.fast_ops"] += static_cast<double>(s.fast_ops);
    counters["qstate.dense_ops"] += static_cast<double>(s.dense_ops);
    counters["qstate.promotions"] += static_cast<double>(s.promotions);
    counters["qstate.pool_misses"] += static_cast<double>(s.pool_misses);
  }
  void add_router(const routing::Router::Stats& s) {
    counters["routing.submitted"] += static_cast<double>(s.submitted);
    counters["routing.blocked"] += static_cast<double>(s.blocked);
    counters["routing.rerouted"] += static_cast<double>(s.rerouted);
    counters["routing.pairs_delivered"] +=
        static_cast<double>(s.pairs_delivered);
    counters["requests.failed"] +=
        static_cast<double>(s.failed + s.rejected + s.abandoned);
    counters["requests.unsettled"] += static_cast<double>(
        s.submitted - std::min(s.submitted, s.completed + s.failed +
                                                s.rejected));
  }
  void add_requests(const metrics::Collector& c) {
    for (const core::Priority p :
         {core::Priority::kNetworkLayer, core::Priority::kCreateKeep,
          core::Priority::kMeasureDirectly}) {
      const auto& k = c.kind(p);
      counters["requests.submitted"] +=
          static_cast<double>(k.requests_submitted);
      counters["requests.completed"] +=
          static_cast<double>(k.requests_completed);
      counters["requests.pairs"] += static_cast<double>(k.pairs_delivered);
    }
    pooled.merge(c);
  }
};

void profile(sim::Simulator& sim) {
  sim.set_telemetry(true);
  sim.set_profiler(true);
}

std::uint64_t completed_requests(const metrics::Collector& c) {
  std::uint64_t n = 0;
  for (const core::Priority p :
       {core::Priority::kNetworkLayer, core::Priority::kCreateKeep,
        core::Priority::kMeasureDirectly}) {
    n += c.kind(p).requests_completed;
  }
  return n;
}

bool settled(const workload::WorkloadDriver& driver,
             const routing::Router& router, std::uint64_t target) {
  const auto& rs = router.stats();
  return driver.requests_issued() >= target &&
         rs.completed + rs.failed + rs.rejected >= rs.submitted;
}

/// The flow-level operating menu of the routed workloads' hardware,
/// probed from a standalone full-detail link.
netlayer::FlowCalibration calibrate(const core::LinkConfig& lc) {
  core::Link probe(lc);
  return netlayer::FlowCalibration::from_link(probe, kFloorMenu);
}

/// Lab hardware with deep decoherence-protected carbon memory, so request
/// latency is generation-dominated (the flow model's validity regime),
/// on the Bell-diagonal backend with Pauli-frame installs.
core::LinkConfig deep_memory_link(std::uint64_t seed) {
  core::LinkConfig lc;
  lc.scenario = hw::ScenarioParams::lab();
  lc.scenario.nv.carbon_t2_ns = 5e9;
  lc.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  lc.backend = qstate::BackendKind::kBellDiagonal;
  lc.pauli_twirl_installs = true;
  lc.seed = seed;
  return lc;
}

netlayer::FlowPlaneConfig flow_config(const routing::Graph& graph,
                                      const netlayer::FlowCalibration& cal,
                                      metrics::Collector* collector,
                                      std::uint64_t seed) {
  netlayer::FlowPlaneConfig fc;
  fc.num_nodes = graph.num_nodes();
  fc.edges.reserve(graph.num_edges());
  for (const routing::Graph::Edge& e : graph.edges()) {
    fc.edges.emplace_back(e.a, e.b);
  }
  fc.calibration = cal;
  fc.collector = collector;
  fc.seed = seed;
  return fc;
}

workload::TrafficConfig routed_traffic(
    std::shared_ptr<workload::ArrivalProcess> arrivals,
    double min_fidelity = kMinFidelity) {
  workload::TrafficConfig traffic;
  traffic.min_fidelity = min_fidelity;
  traffic.link_min_fidelity = kFloorMenu[0];
  traffic.arrivals = std::move(arrivals);
  return traffic;
}

workload::DriverConfig routed_tuning(std::uint64_t seed,
                                     sim::SimTime poll_interval) {
  workload::DriverConfig tuning;
  tuning.seed = seed;
  tuning.poll_interval = poll_interval;
  return tuning;
}

/// The Router's view of a plane: the plane itself, or a TimedPlane in
/// front of it in a traced run.
struct PlaneSeam {
  std::unique_ptr<TimedPlane> timed;
  netlayer::EntanglementPlane* plane = nullptr;

  PlaneSeam(netlayer::EntanglementPlane& inner, const Ctx& ctx) {
    if (ctx.traced) timed = std::make_unique<TimedPlane>(inner, *ctx.spans);
    plane = timed ? static_cast<netlayer::EntanglementPlane*>(timed.get())
                  : &inner;
  }
};

void add_timed(Model* model, const PlaneSeam& seam) {
  if (model != nullptr && seam.timed) {
    model->counters["routing.timed_deliveries"] +=
        static_cast<double>(seam.timed->deliveries());
  }
}

// ---- link-mixed --------------------------------------------------------
//
// The paper's Section 6 traffic on one busy link: Lab scenario, dense
// backend, WFQ {10, 1}, Uniform usage at load 0.99 (per-cycle Bernoulli
// issue of NL/CK/MD CREATEs from a random origin, min F 0.64). Each
// instance issues for a fixed span of simulated time, then drains.

Instance run_link_mixed(const Ctx& ctx, std::uint64_t seed,
                        double sim_seconds, Model* model) {
  Instance out;
  const auto t0 = Clock::now();
  std::unique_ptr<core::Link> link;
  {
    Span s(ctx.spans, "setup.network");
    core::LinkConfig lc;
    lc.scenario = hw::ScenarioParams::lab();
    lc.seed = seed;
    link = std::make_unique<core::Link>(lc);
  }
  if (ctx.traced) profile(link->simulator());
  metrics::Collector collector;
  std::unique_ptr<workload::WorkloadDriver> driver;
  {
    Span s(ctx.spans, "setup.driver");
    workload::WorkloadConfig wl =
        workload::usage_pattern("Uniform", 0.99).config;
    wl.seed = seed;
    driver = workload::WorkloadDriver::for_link(*link, wl.traffic(),
                                                wl.tuning(), collector);
  }
  out.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  sim::Simulator& sim = link->simulator();
  link->start();
  driver->start();
  const sim::SimTime end = sim::duration::seconds(sim_seconds);
  while (sim.now() < end) {
    Span s(ctx.spans, "sim.run_for");
    link->run_for(std::min(kChunk, end - sim.now()));
  }
  // Stop issuing and drain: every request issued in the window settles,
  // so no latency sample is cut off by the window's end.
  driver->stop();
  while (collector.open_requests() > 0 &&
         sim::to_seconds(sim.now()) < kCapSeconds) {
    Span s(ctx.spans, "sim.run_for");
    link->run_for(kChunk);
  }
  out.run_s = seconds_since(t1);

  Digest d;
  d.add(collector);
  d.add(static_cast<std::uint64_t>(sim.now()));
  out.digest = d.h;
  out.completed = completed_requests(collector);
  if (model != nullptr) {
    model->add_requests(collector);
    model->add_egps(*link);
    model->add_backend(link->registry());
    model->add_labels(sim);
    model->counters["sim.events"] +=
        static_cast<double>(sim.events_processed());
    model->sim_s += sim::to_seconds(sim.now());
    model->counters["requests.unsettled"] +=
        static_cast<double>(collector.open_requests());
    model->min_fidelity = 0.64;
    for (const core::EgpError e :
         {core::EgpError::kTimeout, core::EgpError::kUnsupported,
          core::EgpError::kMemExceeded, core::EgpError::kOutOfMemory,
          core::EgpError::kDenied, core::EgpError::kNoTime,
          core::EgpError::kRejected, core::EgpError::kExpired}) {
      model->counters["requests.failed"] +=
          static_cast<double>(collector.errors(e));
    }
  }
  return out;
}

// ---- grid-full ---------------------------------------------------------
//
// Full detail on a 3x3 grid (12 links): QuantumNetwork + SwapService on
// the Bell-diagonal backend, Router with k = 4, Poisson arrivals at
// 12 Hz between random endpoints, run to completion. Most links idle
// most of the time, so idle MHP cycles dominate the event count. On the
// model pass a FlowPlane twin serves the same traffic from the same
// seed; run.py compares the two (flow_error).

constexpr double kGridRateHz = 12.0;
/// Full detail adds the memory decoherence of a pair waiting for the
/// route's slowest hop, which the planner's estimate leaves out: a 4-hop
/// pair planned at 0.41 is delivered near 0.35. grid-full requests what
/// its corner-to-corner routes deliver.
constexpr double kGridMinFidelity = 0.3;

/// grid-full's traffic: `count` arrivals at independent uniform times
/// over count / rate_hz simulated seconds (a Poisson process at rate_hz
/// conditioned on its count), between endpoint pairs drawn without
/// replacement from every ordered pair of distinct nodes, reshuffled once
/// all have been used. Fixing the window and covering the whole
/// route-length mix keeps a few hundred requests steady from seed to
/// seed. Draws from its own generator, never the driver's.
class GridArrivals final : public workload::ArrivalProcess {
 public:
  GridArrivals(double rate_hz, std::uint64_t count, std::uint32_t num_nodes,
               std::uint64_t seed)
      : random_(seed ^ 0x6772696461727276ULL), rate_hz_(rate_hz) {
    const double window_s = static_cast<double>(count) / rate_hz;
    for (std::uint64_t i = 0; i < count; ++i) {
      times_.push_back(sim::duration::seconds(random_.uniform(0.0, window_s)));
    }
    std::sort(times_.begin(), times_.end());
    for (std::uint32_t a = 0; a < num_nodes; ++a) {
      for (std::uint32_t b = 0; b < num_nodes; ++b) {
        if (a != b) pairs_.emplace_back(a, b);
      }
    }
    next_pair_ = pairs_.size();
  }

  sim::SimTime next_arrival(sim::Random&, sim::SimTime now) const override {
    if (next_time_ == times_.size()) return kNever;
    return std::max(times_[next_time_++], now + 1);
  }
  workload::RequestShape sample_shape(sim::Random&,
                                      sim::SimTime) const override {
    if (next_pair_ == pairs_.size()) {
      for (std::size_t i = pairs_.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            random_.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(pairs_[i], pairs_[j]);
      }
      next_pair_ = 0;
    }
    workload::RequestShape shape;
    shape.endpoints = {pairs_[next_pair_++]};
    return shape;
  }
  double mean_rate_hz() const override { return rate_hz_; }

 private:
  mutable sim::Random random_;
  double rate_hz_;
  std::vector<sim::SimTime> times_;
  mutable std::size_t next_time_ = 0;
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  mutable std::size_t next_pair_ = 0;
};

routing::RouterConfig grid_router_config() {
  routing::RouterConfig rc;
  rc.k_candidates = 4;
  return rc;
}

/// Advance in kChunk steps until every request is issued and settled,
/// calling `poll` (when set) between steps.
template <typename RunFor>
void run_to_completion(Spans* spans, const workload::WorkloadDriver& driver,
                       const routing::Router& router,
                       const sim::Simulator& sim, std::uint64_t target,
                       RunFor&& run_for, const std::function<void()>& poll) {
  while (!settled(driver, router, target) &&
         sim::to_seconds(sim.now()) < kCapSeconds) {
    {
      Span s(spans, "sim.run_for");
      run_for(kChunk);
    }
    if (poll) {
      Span s(spans, "obs.poll");
      poll();
    }
  }
}

/// The flow twin: the same grid, traffic and seed over a FlowPlane.
void run_grid_twin(const routing::Graph& graph,
                   const netlayer::FlowCalibration& cal, std::uint64_t seed,
                   std::uint64_t requests, Model& model) {
  metrics::Collector collector;
  netlayer::FlowPlane plane(flow_config(graph, cal, &collector, seed));
  routing::Router router(graph, plane, grid_router_config(), &collector);
  router.annotate_from_network(kFloorMenu);
  auto driver = workload::WorkloadDriver::for_routed(
      router,
      routed_traffic(std::make_shared<Arrivals>(
          std::make_shared<GridArrivals>(kGridRateHz, requests, 9, seed),
          requests, nullptr),
          kGridMinFidelity),
      routed_tuning(seed, sim::duration::milliseconds(1)), collector);
  driver->start();
  run_to_completion(nullptr, *driver, router, plane.simulator(), requests,
                    [&plane](sim::SimTime span) { plane.run_for(span); },
                    nullptr);
  driver->stop();
  model.twin.merge(collector);
}

Instance run_grid_full(const Ctx& ctx, std::uint64_t seed, double size,
                       Model* model) {
  const auto requests = static_cast<std::uint64_t>(size);
  Instance out;
  const auto t0 = Clock::now();
  const routing::Graph graph = [&] {
    Span s(ctx.spans, "setup.topology");
    return routing::Graph::grid(3, 3);
  }();
  netlayer::FlowCalibration cal;
  {
    Span s(ctx.spans, "setup.calibrate");
    cal = calibrate(deep_memory_link(seed));
  }
  metrics::Collector collector;
  std::unique_ptr<netlayer::QuantumNetwork> net;
  std::unique_ptr<netlayer::SwapService> swap;
  std::unique_ptr<PlaneSeam> seam;
  std::unique_ptr<routing::Router> router;
  {
    Span s(ctx.spans, "setup.network");
    net = std::make_unique<netlayer::QuantumNetwork>(
        routing::make_network_config(graph, deep_memory_link(seed), seed));
    swap = std::make_unique<netlayer::SwapService>(*net, &collector);
    seam = std::make_unique<PlaneSeam>(*swap, ctx);
    router = std::make_unique<routing::Router>(graph, *seam->plane,
                                               grid_router_config(),
                                               &collector);
  }
  if (ctx.traced) profile(net->simulator());
  {
    Span s(ctx.spans, "setup.annotate");
    router->annotate_from_network(kFloorMenu);
  }
  std::unique_ptr<workload::WorkloadDriver> driver;
  {
    Span s(ctx.spans, "setup.driver");
    driver = workload::WorkloadDriver::for_routed(
        *router,
        routed_traffic(std::make_shared<Arrivals>(
            std::make_shared<GridArrivals>(kGridRateHz, requests, 9, seed),
            requests, ctx.traced ? ctx.spans : nullptr),
            kGridMinFidelity),
        routed_tuning(seed, sim::duration::milliseconds(1)), collector);
  }
  out.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  net->start();
  driver->start();
  run_to_completion(ctx.spans, *driver, *router, net->simulator(), requests,
                    [&net](sim::SimTime span) { net->run_for(span); },
                    nullptr);
  driver->stop();
  out.run_s = seconds_since(t1);

  Digest d;
  d.add(collector);
  d.add(router->stats());
  d.add(static_cast<std::uint64_t>(net->simulator().now()));
  out.digest = d.h;
  out.completed = completed_requests(collector);
  if (model != nullptr) {
    model->add_requests(collector);
    model->add_router(router->stats());
    add_timed(model, *seam);
    for (std::size_t i = 0; i < net->num_links(); ++i) {
      model->add_egps(net->link(i));
    }
    model->add_backend(net->registry());
    model->add_labels(net->simulator());
    const auto& ss = swap->stats();
    model->counters["netlayer.swaps"] += static_cast<double>(ss.swaps);
    model->counters["netlayer.link_pairs_consumed"] +=
        static_cast<double>(ss.link_pairs_consumed);
    model->counters["netlayer.unclaimed_oks"] +=
        static_cast<double>(ss.unclaimed_oks);
    model->counters["sim.events"] +=
        static_cast<double>(net->simulator().events_processed());
    model->sim_s += sim::to_seconds(net->simulator().now());
    model->min_fidelity = kGridMinFidelity;
    run_grid_twin(graph, cal, seed, requests, *model);
  }
  return out;
}

// ---- flow-scale --------------------------------------------------------
//
// The million-request path as users run it: dragonfly(32x32), 1024
// nodes and 16368 links, Router with the path cache on over FlowPlane,
// the three-class mix of bench_workload_scale, with EdgeStats, a Monitor
// (100 ms) and a NetState (1 s) polled by this loop every 100 simulated
// ms. No MHP, EGP or quantum state: driver, cached admission, flow plane,
// Collector and the observers carry the cost.

constexpr std::size_t kGroups = 32;
constexpr std::size_t kRouters = 32;
/// Offered load per distinct endpoint pair, relative to one link's
/// calibrated pair time (the batch class's two pairs double it).
constexpr double kUtilization = 0.2;

/// Endpoint pool of `n` distinct-endpoint pairs over `num_nodes` ids.
std::vector<std::pair<std::uint32_t, std::uint32_t>> endpoint_pool(
    sim::Random& pick, std::size_t num_nodes, std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(n);
  const auto hi = static_cast<std::int64_t>(num_nodes) - 1;
  while (pairs.size() < n) {
    const auto src = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
    const auto dst = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
    if (src != dst) pairs.emplace_back(src, dst);
  }
  return pairs;
}

/// bench_workload_scale's mix: bulk / interactive / batch with weights
/// 4 / 2 / 1 over pinned pools of 40 / 20 / 10 pairs, so every pair sees
/// the same arrival rate (70 pairs share the total).
std::shared_ptr<workload::ArrivalProcess> class_mix(double total_rate_hz,
                                                    std::size_t num_nodes,
                                                    std::uint64_t seed) {
  sim::Random pick(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<workload::ClassMixProcess::Class> classes(3);
  classes[0].weight = 4.0;
  classes[0].shape.name = "bulk";
  classes[0].shape.endpoints = endpoint_pool(pick, num_nodes, 40);
  classes[1].weight = 2.0;
  classes[1].shape.name = "interactive";
  classes[1].shape.endpoints = endpoint_pool(pick, num_nodes, 20);
  classes[2].weight = 1.0;
  classes[2].shape.name = "batch";
  classes[2].shape.num_pairs = 2;
  classes[2].shape.endpoints = endpoint_pool(pick, num_nodes, 10);
  return std::make_shared<workload::ClassMixProcess>(
      std::make_shared<workload::PoissonProcess>(total_rate_hz),
      std::move(classes));
}

double mix_rate_hz(const netlayer::FlowCalibration& cal) {
  const netlayer::FlowCalibration::Entry* point = cal.best();
  if (point == nullptr) {
    std::fprintf(stderr, "flow calibration: no feasible operating point\n");
    std::exit(1);
  }
  return kUtilization * 70.0 / std::max(point->pair_time_s, 1e-9);
}

Instance run_flow_scale(const Ctx& ctx, std::uint64_t seed, double size,
                        Model* model) {
  const auto requests = static_cast<std::uint64_t>(size);
  Instance out;
  const auto t0 = Clock::now();
  const routing::Graph graph = [&] {
    Span s(ctx.spans, "setup.topology");
    return routing::Graph::dragonfly(kGroups, kRouters);
  }();
  netlayer::FlowCalibration cal;
  {
    Span s(ctx.spans, "setup.calibrate");
    cal = calibrate(deep_memory_link(seed));
  }
  metrics::Collector collector;
  // A leaked request must not grow memory for the rest of the run.
  collector.set_open_capacity(1u << 16);
  std::unique_ptr<netlayer::FlowPlane> plane;
  std::unique_ptr<PlaneSeam> seam;
  std::unique_ptr<routing::Router> router;
  {
    Span s(ctx.spans, "setup.network");
    plane = std::make_unique<netlayer::FlowPlane>(
        flow_config(graph, cal, &collector, seed));
    seam = std::make_unique<PlaneSeam>(*plane, ctx);
    routing::RouterConfig rc;
    rc.k_candidates = 2;
    rc.cache_paths = true;  // pinned endpoint pools keep the cache bounded
    router = std::make_unique<routing::Router>(graph, *seam->plane, rc,
                                               &collector);
  }
  if (ctx.traced) profile(plane->simulator());
  {
    Span s(ctx.spans, "setup.annotate");
    router->annotate_from_network(kFloorMenu);
  }
  std::unique_ptr<metrics::EdgeStats> edge_stats;
  std::unique_ptr<obs::Monitor> monitor;
  std::unique_ptr<obs::NetState> netstate;
  if (ctx.obs) {
    Span s(ctx.spans, "setup.obs");
    edge_stats = std::make_unique<metrics::EdgeStats>(graph.num_edges(),
                                                      graph.num_nodes());
    router->set_edge_stats(edge_stats.get());
    obs::MonitorConfig mc;
    mc.run = "flow-scale";
    mc.target_requests = requests;
    // Stall = 3 s without a delivery while requests wait. In the drain
    // tail one slow request can hold a queue of blocked ones for ~1 s.
    mc.stall_consecutive = 30;
    monitor = std::make_unique<obs::Monitor>(plane->simulator(), collector,
                                             std::move(mc));
    monitor->attach_router(router.get());
    obs::NetStateConfig nsc;
    nsc.run = "flow-scale";
    nsc.interval = sim::duration::seconds(1);  // 16k edges per record
    netstate = std::make_unique<obs::NetState>(plane->simulator(),
                                               *edge_stats, std::move(nsc));
    netstate->attach_collector(&collector);
    netstate->attach_graph(&graph);
  }
  std::unique_ptr<workload::WorkloadDriver> driver;
  {
    Span s(ctx.spans, "setup.driver");
    driver = workload::WorkloadDriver::for_routed(
        *router,
        routed_traffic(std::make_shared<Arrivals>(
            class_mix(mix_rate_hz(cal), graph.num_nodes(), seed), requests,
            ctx.traced ? ctx.spans : nullptr)),
        routed_tuning(seed, sim::duration::milliseconds(10)), collector);
  }
  out.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  driver->start();
  std::function<void()> poll;
  if (ctx.obs) {
    poll = [&] {
      monitor->poll();
      netstate->poll();
    };
  }
  run_to_completion(ctx.spans, *driver, *router, plane->simulator(), requests,
                    [&plane](sim::SimTime span) { plane->run_for(span); },
                    poll);
  driver->stop();
  if (ctx.obs) {
    Span s(ctx.spans, "obs.finish");
    monitor->finish();
    netstate->finish();
  }
  out.run_s = seconds_since(t1);

  Digest d;
  d.add(collector);
  d.add(router->stats());
  d.add(static_cast<std::uint64_t>(plane->simulator().now()));
  out.digest = d.h;
  out.completed = completed_requests(collector);
  if (model != nullptr) {
    model->add_requests(collector);
    model->add_router(router->stats());
    add_timed(model, *seam);
    model->add_labels(plane->simulator());
    model->counters["netlayer.flow_attempts"] +=
        static_cast<double>(plane->stats().attempts);
    model->counters["sim.events"] +=
        static_cast<double>(plane->simulator().events_processed());
    if (ctx.obs) {
      model->counters["obs.records"] += static_cast<double>(
          monitor->intervals() + netstate->intervals());
      model->counters["obs.stalled_intervals"] +=
          static_cast<double>(monitor->stalled_intervals());
    }
    model->sim_s += sim::to_seconds(plane->simulator().now());
    model->min_fidelity = kMinFidelity;
  }
  return out;
}

// ---- islands -----------------------------------------------------------
//
// The same dragonfly carved into 4 ShardAssignment::blocks islands on
// one sim::ShardedEngine. Each island has its own induced subgraph,
// FlowPlane, Router (path cache off: every request pays a Yen search over
// ~4k edges) and per-island traffic; 50 ms heartbeat channels between
// consecutive islands keep the barrier protocol busy, as in
// bench_workload_scale. Path search and barrier rounds dominate.

constexpr std::size_t kIslands = 4;

Instance run_islands(const Ctx& ctx, std::uint64_t seed, double size,
                     Model* model) {
  const auto per_island =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(size) / kIslands);
  const auto island_seed = [seed](std::size_t s) {
    return seed + 0x100000001b3ULL * (s + 1);
  };
  Instance out;
  const auto t0 = Clock::now();
  std::vector<routing::Graph> graphs;
  std::vector<std::vector<std::uint32_t>> nodes(kIslands);
  {
    Span s(ctx.spans, "setup.topology");
    const routing::Graph full = routing::Graph::dragonfly(kGroups, kRouters);
    const auto assign =
        sim::ShardAssignment::blocks(full.num_nodes(), kIslands);
    for (std::uint32_t n = 0; n < full.num_nodes(); ++n) {
      nodes[assign.shard(n)].push_back(n);
    }
    for (std::size_t i = 0; i < kIslands; ++i) {
      graphs.push_back(full.induced(nodes[i]));
    }
  }
  netlayer::FlowCalibration cal;
  {
    Span s(ctx.spans, "setup.calibrate");
    cal = calibrate(deep_memory_link(seed));
  }

  // The measured run keeps the engine on one thread: on a shared 4-core
  // host, threaded rounds gain ~10% and add 8-15% run-to-run noise. The
  // traced run's kOff/kAuto legs measure the threads. Threads only when
  // the host has a core per island.
  const bool threads =
      ctx.parallel && std::thread::hardware_concurrency() >= kIslands;
  std::unique_ptr<sim::ShardedEngine> engine;
  std::vector<std::unique_ptr<metrics::Collector>> collectors;
  std::vector<std::unique_ptr<netlayer::FlowPlane>> planes;
  std::vector<std::unique_ptr<PlaneSeam>> seams;
  std::vector<std::unique_ptr<routing::Router>> routers;
  std::vector<std::unique_ptr<sim::Random>> channel_randoms;
  std::vector<std::unique_ptr<net::ClassicalChannel>> channels;
  {
    Span s(ctx.spans, "setup.network");
    sim::ShardedEngine::Config ecfg;
    ecfg.num_shards = kIslands;
    ecfg.parallel = threads ? sim::ShardedEngine::Parallel::kAuto
                            : sim::ShardedEngine::Parallel::kOff;
    engine = std::make_unique<sim::ShardedEngine>(ecfg);
    for (std::size_t i = 0; i < kIslands; ++i) {
      collectors.push_back(std::make_unique<metrics::Collector>());
      netlayer::FlowPlaneConfig fc =
          flow_config(graphs[i], cal, collectors[i].get(), island_seed(i));
      fc.engine = engine.get();
      fc.shard = i;
      planes.push_back(std::make_unique<netlayer::FlowPlane>(std::move(fc)));
      seams.push_back(std::make_unique<PlaneSeam>(*planes[i], ctx));
      routing::RouterConfig rc;
      rc.k_candidates = 2;
      rc.cache_paths = false;  // pay path search per request
      routers.push_back(std::make_unique<routing::Router>(
          graphs[i], *seams[i]->plane, rc, collectors[i].get()));
    }
    const sim::SimTime heartbeat_delay = sim::duration::milliseconds(50);
    for (std::size_t i = 0; i + 1 < kIslands; ++i) {
      channel_randoms.push_back(
          std::make_unique<sim::Random>(island_seed(i) ^ 0x5eedULL));
      channel_randoms.push_back(
          std::make_unique<sim::Random>(island_seed(i + 1) ^ 0x5eedULL));
      channels.push_back(std::make_unique<net::ClassicalChannel>(
          engine->ref(i), *channel_randoms[2 * i], engine->ref(i + 1),
          *channel_randoms[2 * i + 1], "heartbeat", heartbeat_delay));
      channels[i]->set_receiver(0, [](std::vector<std::uint8_t>) {});
      channels[i]->set_receiver(1, [](std::vector<std::uint8_t>) {});
    }
  }
  if (ctx.traced) {
    for (std::size_t i = 0; i < kIslands; ++i) profile(engine->sim(i));
  }
  {
    Span s(ctx.spans, "setup.annotate");
    for (auto& router : routers) router->annotate_from_network(kFloorMenu);
  }
  std::vector<std::unique_ptr<workload::WorkloadDriver>> drivers;
  {
    Span s(ctx.spans, "setup.driver");
    // Together the islands offer flow-scale's load. At flow-scale's full
    // rate per island, the few global links inside an island saturate
    // and the blocked queue grows for the whole run.
    const double rate_hz = mix_rate_hz(cal) / static_cast<double>(kIslands);
    for (std::size_t i = 0; i < kIslands; ++i) {
      drivers.push_back(workload::WorkloadDriver::for_routed(
          *routers[i],
          routed_traffic(std::make_shared<Arrivals>(
              class_mix(rate_hz, graphs[i].num_nodes(), island_seed(i)),
              per_island, ctx.traced ? ctx.spans : nullptr)),
          routed_tuning(island_seed(i), sim::duration::milliseconds(10)),
          *collectors[i]));
    }
  }
  out.setup_s = seconds_since(t0);

  // One self-rescheduling heartbeat per island, on its own heap: a frame
  // to each neighbouring island every 100 ms.
  const sim::SimTime period = sim::duration::milliseconds(100);
  std::vector<std::function<void()>> ticks(kIslands);
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < kIslands; ++i) {
    ticks[i] = [&, i] {
      if (i + 1 < kIslands) channels[i]->send_from(0, {0xA1});
      if (i > 0) channels[i - 1]->send_from(1, {0xB2});
      engine->sim(i).schedule_in(period, [&ticks, i] { ticks[i](); },
                                 "bench.heartbeat");
    };
    engine->sim(i).schedule_in(period, [&ticks, i] { ticks[i](); },
                               "bench.heartbeat");
    drivers[i]->start();
  }
  const auto all_settled = [&] {
    for (std::size_t i = 0; i < kIslands; ++i) {
      if (!settled(*drivers[i], *routers[i], per_island)) return false;
    }
    return true;
  };
  while (!all_settled() && sim::to_seconds(engine->now()) < kCapSeconds) {
    Span s(ctx.spans, "sim.run_for");
    engine->run_for(kChunk);
  }
  for (auto& driver : drivers) driver->stop();
  out.run_s = seconds_since(t1);

  Digest d;
  for (std::size_t i = 0; i < kIslands; ++i) {
    d.add(*collectors[i]);
    d.add(routers[i]->stats());
    out.completed += completed_requests(*collectors[i]);
  }
  d.add(static_cast<std::uint64_t>(engine->now()));
  out.digest = d.h;
  if (model != nullptr) {
    for (std::size_t i = 0; i < kIslands; ++i) {
      model->add_requests(*collectors[i]);
      model->add_router(routers[i]->stats());
      add_timed(model, *seams[i]);
      model->add_labels(engine->sim(i));
      model->counters["netlayer.flow_attempts"] +=
          static_cast<double>(planes[i]->stats().attempts);
    }
    const auto es = engine->stats();
    model->counters["sim.shard_rounds"] += static_cast<double>(es.rounds);
    model->counters["sim.shard_parallel_rounds"] +=
        static_cast<double>(es.parallel_rounds);
    model->counters["sim.shard_idle_jumps"] +=
        static_cast<double>(es.idle_jumps);
    model->counters["sim.shard_posted"] += static_cast<double>(es.posted);
    model->counters["sim.shard_ring_overflows"] +=
        static_cast<double>(es.ring_overflows);
    model->counters["sim.events"] +=
        static_cast<double>(engine->events_processed());
    model->counters["sim.shards"] = static_cast<double>(kIslands);
    model->counters["sim.shard_threads"] = threads ? 1.0 : 0.0;
    model->sim_s += sim::to_seconds(engine->now());
    model->min_fidelity = kMinFidelity;
  }
  return out;
}

// ---- Workload table ----------------------------------------------------

struct Workload {
  const char* name;
  /// Instances in the model pass; their union is the workload.
  std::size_t instances;
  /// Per instance: simulated seconds (link-mixed) or requests.
  double size;
  Instance (*run)(const Ctx&, std::uint64_t, double, Model*);
};

// Sized so the model pass takes roughly 15-20 s on a 4-core x86 host.
constexpr Workload kWorkloads[] = {
    {"link-mixed", 8, 10.0, run_link_mixed},
    {"grid-full", 3, 60.0, run_grid_full},
    {"flow-scale", 32, 37500.0, run_flow_scale},
    {"islands", 32, 4500.0, run_islands},
};

// ---- Output --------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += num(v[i]);
  }
  return s + "]";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The request-latency / fidelity summary run.py reports for a pooled
/// collector. Model metrics cover the network-layer kind on routed
/// workloads; on link-mixed the fidelity mean covers NL and CK pairs
/// (MD pairs are measured on delivery and carry no fidelity).
std::string summary(const metrics::Collector& c) {
  metrics::RunningStat fidelity =
      c.kind(core::Priority::kNetworkLayer).fidelity;
  fidelity.merge(c.kind(core::Priority::kCreateKeep).fidelity);
  const auto& res = c.request_latency_reservoir();
  return "{\"latency_p50_s\": " + num(res.quantile(50.0)) +
         ", \"latency_p90_s\": " + num(res.quantile(90.0)) +
         ", \"latency_samples\": " + num(static_cast<double>(res.count())) +
         ", \"mean_fidelity\": " + num(fidelity.mean()) +
         ", \"fidelity_min\": " + num(c.fidelity_hist().min()) +
         ", \"pairs\": " +
         num(static_cast<double>(c.total_pairs_delivered())) + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: qlinkbench --workload link-mixed|grid-full|"
               "flow-scale|islands --seed K [--seconds S] [--trace DIR] "
               "[--obs on|off] [--parallel auto|off] [--scale F]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 7;
  double seconds = 0.0;
  double scale = 1.0;
  std::string trace_dir;
  Ctx ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace_dir = val;
    } else if (arg == "--obs" && (val == "on" || val == "off")) {
      ctx.obs = val == "on";
    } else if (arg == "--parallel" && (val == "auto" || val == "off")) {
      ctx.parallel = val == "auto";
    } else if (arg == "--scale") {
      scale = std::strtod(val.c_str(), nullptr);
    } else {
      usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload_name == c.name) w = &c;
  }
  if (w == nullptr || !(seconds >= 0.0) || !(scale > 0.0)) usage();

  ctx.traced = !trace_dir.empty();
  Spans spans(ctx.traced);
  ctx.spans = &spans;

  Model model;
  std::vector<std::uint64_t> digests(w->instances);
  std::vector<double> first_run_s(w->instances);
  std::vector<double> rep_instance;
  std::vector<double> rep_completed;
  std::vector<double> rep_setup_s;
  std::vector<double> rep_run_s;
  bool repeats_match = true;
  const auto start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const std::size_t i = rep % w->instances;
    const bool model_pass = rep < w->instances;
    if (!model_pass && seconds_since(start) >= seconds) break;
    const Instance r = w->run(ctx, instance_seed(seed, i), w->size * scale,
                              model_pass ? &model : nullptr);
    if (model_pass) {
      digests[i] = r.digest;
      first_run_s[i] = r.run_s;
    } else if (r.digest != digests[i]) {
      repeats_match = false;
    }
    rep_instance.push_back(static_cast<double>(i));
    rep_completed.push_back(static_cast<double>(r.completed));
    rep_setup_s.push_back(r.setup_s);
    rep_run_s.push_back(r.run_s);
  }
  const double measured_s = seconds_since(start);

  Digest run_digest;
  for (const std::uint64_t d : digests) run_digest.add(d);

  if (ctx.traced) {
    const std::string path = trace_dir + "/trace_" + w->name + ".json";
    if (!spans.write_chrome(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::string out = "{\"workload\": \"" + std::string(w->name) + "\"";
  out += ", \"seed\": " + std::to_string(seed);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  out += ", \"build_type\": \"" QLINKBENCH_BUILD_TYPE "\"";
  out += ", \"ndebug\": " + std::string(ndebug ? "true" : "false");
  out += ", \"traced\": " + std::string(ctx.traced ? "true" : "false");
  out += ", \"instances\": " + std::to_string(w->instances);
  out += ", \"reps\": " + std::to_string(rep_run_s.size());
  out += ", \"digest\": \"" + hex(run_digest.h) + "\"";
  out += ", \"repeats_match\": " +
         std::string(repeats_match ? "true" : "false");
  out += ", \"measured_s\": " + num(measured_s);
  out += ", \"first_run_s\": " + list(first_run_s);
  out += ", \"rep_instance\": " + list(rep_instance);
  out += ", \"rep_completed\": " + list(rep_completed);
  out += ", \"rep_setup_s\": " + list(rep_setup_s);
  out += ", \"rep_run_s\": " + list(rep_run_s);
  out += ", \"peak_rss_mb\": " + num(peak_rss_mb());
  out += ", \"sim_s\": " + num(model.sim_s);
  out += ", \"min_fidelity_requested\": " + num(model.min_fidelity);
  out += ", \"model\": " + summary(model.pooled);
  if (model.twin.total_pairs_delivered() > 0) {
    out += ", \"twin\": " + summary(model.twin);
  }
  out += ", \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : model.counters) {
    out += (first ? "\"" : ", \"") + name + "\": " + num(v);
    first = false;
  }
  out += "}, \"labels\": {";
  first = true;
  for (const auto& [name, t] : model.labels) {
    out += (first ? "\"" : ", \"") + name + "\": {\"count\": " +
           num(static_cast<double>(t.count)) + ", \"wall_s\": " +
           num(t.wall_s) + "}";
    first = false;
  }
  out += "}, \"spans\": {";
  first = true;
  for (const auto& [name, t] : spans.totals()) {
    out += (first ? "\"" : ", \"") + name + "\": {\"count\": " +
           num(static_cast<double>(t.count)) + ", \"total_s\": " +
           num(t.total_s) + ", \"self_s\": " + num(t.self_s) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
