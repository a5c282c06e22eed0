#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/histogram.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "routing/router.hpp"

/// Observability subsystem (ISSUE 6): streaming histograms, the
/// deterministic request-lifecycle tracer, engine telemetry, and the
/// merged Snapshot JSON. The load-bearing guarantees under test:
/// byte-identical traces per seed, and *zero* trajectory perturbation
/// from attaching a tracer or enabling telemetry.

namespace qlink::obs {
namespace {

using metrics::Histogram;
using netlayer::E2eOk;
using netlayer::E2eRequest;
using netlayer::NetworkConfig;
using netlayer::QuantumNetwork;
using netlayer::SwapService;

// ---------------------------------------------------------------------------
// metrics::Histogram

TEST(Histogram, CountSumMean) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Histogram, PercentileBracketsSamples) {
  // 1000 samples spread over [1e-3, 1): percentiles must land within a
  // bin width (~7.5%) of the exact empirical quantiles.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(1e-3 * i);
  EXPECT_NEAR(h.p50(), 0.5, 0.5 * 0.08);
  EXPECT_NEAR(h.p90(), 0.9, 0.9 * 0.08);
  EXPECT_NEAR(h.p99(), 0.99, 0.99 * 0.08);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
}

TEST(Histogram, UnderflowAndOverflowClampToRangeEdges) {
  Histogram h;
  h.record(0.0);                       // <= 0 underflows
  h.record(-1.0);
  h.record(std::nan(""));              // NaN underflows, never a bin
  h.record(Histogram::kMaxValue * 10.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(10.0), Histogram::kMinValue);
  EXPECT_DOUBLE_EQ(h.percentile(99.9), Histogram::kMaxValue);
}

TEST(Histogram, MergeMatchesSingleRecorder) {
  Histogram a, b, whole;
  for (int i = 1; i <= 500; ++i) {
    a.record(1e-6 * i);
    whole.record(1e-6 * i);
  }
  for (int i = 501; i <= 1000; ++i) {
    b.record(1e-6 * i);
    whole.record(1e-6 * i);
  }
  a += b;
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(a.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(a.p99(), whole.p99());
  for (int i = 0; i < Histogram::kBins; ++i) {
    ASSERT_EQ(a.bin_count(i), whole.bin_count(i)) << "bin " << i;
  }
}

TEST(Histogram, BinLayoutCoversTwelveDecades) {
  EXPECT_DOUBLE_EQ(Histogram::bin_lower(0), Histogram::kMinValue);
  EXPECT_NEAR(Histogram::bin_lower(Histogram::kBins),
              Histogram::kMaxValue, 1e-9);
  Histogram h;
  h.record(5e-9);  // nanoseconds and
  h.record(500.0); // hundreds of seconds both land in real bins
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

// ---------------------------------------------------------------------------
// obs::Tracer export surfaces

TEST(Tracer, ChromeJsonShape) {
  Tracer t;
  const TraceId id = t.new_trace();
  EXPECT_EQ(id, 1u);  // ids start at 1; 0 means untraced
  t.complete(id, "request", "request", 1000, 250000,
             {Tracer::str_arg("outcome", "completed")});
  t.instant(id, "router", "submit", 1000,
            {Tracer::num_arg("pairs", std::uint64_t{2})});
  const std::uint64_t a = t.async_begin(id, "hop", "hop", 2000);
  t.async_instant(a, id, "hop", "pair_matched", 3000);
  t.async_end(a, id, "hop", "hop", 4000);
  EXPECT_EQ(t.num_events(), 5u);

  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // ts is microseconds with lossless nanosecond decimals: 1000 ns ->
  // 1.000, 250000 ns dur -> 249.000.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":249.000"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
}

TEST(Tracer, JsonlIsOneEventPerLineIntegerNanoseconds) {
  Tracer t;
  const TraceId id = t.new_trace();
  t.instant(id, "router", "submit", 12345);
  t.complete(id, "request", "request", 12345, 99999);
  const std::string jsonl = t.jsonl();
  std::size_t lines = 0;
  for (const char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, t.num_events());
  EXPECT_NE(jsonl.find("\"t\":12345"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dur\":87654"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"ts\""), std::string::npos);  // chrome key absent
}

TEST(Tracer, StrArgEscapesJson) {
  const auto arg = Tracer::str_arg("k", "a\"b\\c\nd");
  EXPECT_EQ(arg.value, "\"a\\\"b\\\\c\\nd\"");
}

TEST(Tracer, EveryEventCarriesItsPhaseKeys) {
  Tracer t;
  const TraceId id = t.new_trace();
  t.complete(id, "request", "request", 1000, 5000);
  t.instant(id, "router", "submit", 1000);
  const std::uint64_t a = t.async_begin(id, "hop", "hop", 2000);
  t.async_instant(a, id, "hop", "pair_matched", 3000);
  t.async_end(a, id, "hop", "hop", 4000);
  const std::string json = t.chrome_json();
  // One event per line between the header and the closing bracket.
  std::vector<std::string> events;
  for (std::size_t at = json.find('\n') + 1, end; at < json.size();
       at = end + 1) {
    end = json.find('\n', at);
    std::string line = json.substr(at, end - at);
    if (line.back() == ',') line.pop_back();
    if (line != "]}") events.push_back(line);
  }
  ASSERT_EQ(events.size(), 6u);
  const auto has = [](const std::string& ev, const char* key) {
    return ev.find(std::string("\"") + key + "\":") != std::string::npos;
  };
  EXPECT_TRUE(has(events[0], "name"));
  EXPECT_NE(events[0].find("\"ph\":\"M\""), std::string::npos);
  for (std::size_t i = 1; i < events.size(); ++i) {
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      EXPECT_TRUE(has(events[i], key)) << key << " in " << events[i];
    }
  }
  EXPECT_TRUE(has(events[1], "dur"));  // "X"
  EXPECT_TRUE(has(events[2], "s"));    // "i"
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_TRUE(has(events[i], "id")) << events[i];  // "b", "n", "e"
  }
  EXPECT_EQ(t.violations(), std::vector<std::string>{});
}

/// The one violation `t` reports, or a note saying how many there are.
std::string only_violation(const Tracer& t) {
  const std::vector<std::string> found = t.violations();
  if (found.size() != 1) {
    return std::to_string(found.size()) + " violations";
  }
  return found.front();
}

TEST(TracerRules, EventsNeedANameACategoryAndNonNegativeTimes) {
  Tracer negative_ts;
  negative_ts.instant(0, "router", "submit", -1);
  EXPECT_EQ(only_violation(negative_ts),
            "trace event 0 (submit): negative ts -1");
  Tracer negative_dur;
  negative_dur.complete(1, "request", "request", 500, 200);
  EXPECT_EQ(only_violation(negative_dur),
            "trace event 0 (request): negative dur -300");
  Tracer unnamed;
  unnamed.instant(0, "", "submit", 0);
  unnamed.instant(0, "router", "", 0);
  EXPECT_EQ(unnamed.violations(),
            (std::vector<std::string>{"trace event 0 (submit): empty cat",
                                      "trace event 1 (): empty name"}));
}

TEST(TracerRules, AsyncEndNeedsAnOpenBeginWithItsCategory) {
  Tracer never_begun;
  never_begun.async_end(7, 1, "hop", "hop", 100);
  EXPECT_EQ(only_violation(never_begun),
            "trace event 0 (hop): async id (hop, 7) ended without an open "
            "begin");

  Tracer twice;
  const std::uint64_t a = twice.async_begin(1, "hop", "hop", 100);
  twice.async_end(a, 1, "hop", "hop", 200);
  twice.async_end(a, 1, "hop", "hop", 300);
  EXPECT_EQ(only_violation(twice),
            "trace event 2 (hop): async id (hop, 1) ended without an open "
            "begin");

  // An end under another category leaves the begin open.
  Tracer wrong_cat;
  const std::uint64_t b = wrong_cat.async_begin(1, "hop", "hop", 100);
  wrong_cat.async_end(b, 1, "link", "hop", 200);
  EXPECT_EQ(wrong_cat.violations(),
            (std::vector<std::string>{
                "trace event 1 (hop): async id (link, 1) ended without an "
                "open begin",
                "trace event 0 (hop): async begin never ended"}));
}

TEST(TracerRules, AsyncEndMayNotPrecedeItsBegin) {
  Tracer t;
  const std::uint64_t a = t.async_begin(1, "hop", "hop", 500);
  t.async_end(a, 1, "hop", "hop", 400);
  EXPECT_EQ(only_violation(t),
            "trace event 1 (hop): async id (hop, 1) ends at 400 before its "
            "begin at 500");
}

TEST(TracerRules, AsyncBeginMustEnd) {
  Tracer t;
  t.async_begin(1, "hop", "hop", 100);
  EXPECT_EQ(only_violation(t),
            "trace event 0 (hop): async begin never ended");
}

TEST(TracerRules, AsyncInstantNeedsABegunId) {
  Tracer t;
  t.async_instant(9, 1, "hop", "pair_matched", 100);
  EXPECT_EQ(only_violation(t),
            "trace event 0 (pair_matched): async id (hop, 9) never begun");
  // After its end an id still counts as begun.
  Tracer ended;
  const std::uint64_t a = ended.async_begin(1, "hop", "hop", 100);
  ended.async_end(a, 1, "hop", "hop", 200);
  ended.async_instant(a, 1, "hop", "pair_matched", 300);
  EXPECT_EQ(ended.violations(), std::vector<std::string>{});
}

TEST(TracerRules, SpansOnOneLaneNest) {
  Tracer t;
  t.complete(1, "request", "request", 0, 100);
  t.complete(1, "request", "admission_wait", 0, 40);  // inside
  t.complete(1, "request", "deferral_window", 40, 100);  // inside, after
  t.complete(2, "request", "request", 50, 150);  // another lane
  t.complete(1, "request", "late", 100, 120);    // after the envelope
  EXPECT_EQ(t.violations(), std::vector<std::string>{});
  t.complete(1, "request", "straddle", 90, 110);
  EXPECT_EQ(only_violation(t),
            "trace event 5 (straddle): span [90, 110] partially overlaps "
            "\"deferral_window\" [40, 100] on lane 1");
}

TEST(Tracer, UntracedEventsLandOnGlobalLane) {
  Tracer t;
  t.instant(0, "egp", "error", 777);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// sim::Simulator telemetry

TEST(SimulatorTelemetry, CountsExecutedEventsPerLabel) {
  sim::Simulator s;
  s.set_telemetry(true);
  int fired = 0;
  for (int i = 0; i < 3; ++i) {
    s.schedule_in(10 * (i + 1), [&fired] { ++fired; }, "test.a");
  }
  s.schedule_in(5, [&fired] { ++fired; }, "test.b");
  s.schedule_in(6, [&fired] { ++fired; });  // unlabeled
  s.run_all();
  EXPECT_EQ(fired, 5);

  const auto stats = s.label_stats();
  ASSERT_EQ(stats.size(), 3u);  // sorted by label text
  EXPECT_EQ(stats[0].label, "(unlabeled)");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[1].label, "test.a");
  EXPECT_EQ(stats[1].count, 3u);
  EXPECT_EQ(stats[2].label, "test.b");
  EXPECT_EQ(stats[2].count, 1u);
  EXPECT_DOUBLE_EQ(stats[1].wall_seconds, 0.0);  // profiler was off
}

TEST(SimulatorTelemetry, OffByDefaultAndCostsNothing) {
  sim::Simulator s;
  EXPECT_FALSE(s.telemetry());
  EXPECT_FALSE(s.profiler());
  s.schedule_in(1, [] {}, "test.a");
  s.run_all();
  EXPECT_TRUE(s.label_stats().empty());
}

TEST(SimulatorTelemetry, HeapHighWaterIsAlwaysTracked) {
  sim::Simulator s;
  EXPECT_EQ(s.heap_high_water(), 0u);
  for (int i = 0; i < 7; ++i) s.schedule_in(i + 1, [] {});
  EXPECT_EQ(s.heap_high_water(), 7u);
  s.run_all();
  EXPECT_EQ(s.heap_high_water(), 7u);  // high-water, not current depth
}

TEST(SimulatorTelemetry, ProfilerAccumulatesWallTime) {
  sim::Simulator s;
  s.set_profiler(true);
  volatile double sink = 0.0;
  s.schedule_in(1,
                [&sink] {
                  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
                },
                "test.busy");
  s.schedule_in(2, [] {}, "test.idle");
  s.run_all();
  const auto top = s.hottest(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].label, "test.busy");
  EXPECT_GT(top[0].wall_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Collector origin lookup (satellite: no more opaque map::at throw)

TEST(CollectorOrigin, MissingOriginThrowsWithNodeAndProbesAreSafe) {
  metrics::Collector c;
  EXPECT_FALSE(c.has_origin(42));
  EXPECT_EQ(c.find_origin(42), nullptr);
  try {
    c.by_origin(42);
    FAIL() << "by_origin should throw for an unknown node";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Shared JSON number writers (Monitor, NetState and Snapshot use them)

TEST(ObsJson, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23,
                         0.9999999999999999}) {
    std::string out;
    json::append_num(out, v);
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
  }
}

TEST(ObsJson, CountersAndFieldsPrintBareDecimals) {
  std::string out;
  json::append_num(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "18446744073709551615");

  out.clear();
  json::append_field(out, "events", std::uint64_t{42});
  out += ',';
  json::append_field(out, "rate", 0.5);
  EXPECT_EQ(out, "\"events\":42,\"rate\":0.5");
}

// ---------------------------------------------------------------------------
// Snapshot JSON

TEST(Snapshot, AllNullSourcesYieldEmptyObject) {
  EXPECT_EQ(Snapshot{}.json(), "{}");
}

TEST(Snapshot, HistogramJsonCarriesPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(0.01 * i);
  const std::string json = histogram_json(h);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"underflow\":0"), std::string::npos);
}

TEST(Snapshot, EngineSectionReflectsSimulator) {
  sim::Simulator s;
  s.set_telemetry(true);
  s.schedule_in(1, [] {}, "test.a");
  s.run_all();
  Snapshot snap;
  snap.simulator = &s;
  const std::string json = snap.json();
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"events_processed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"heap_high_water\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.a\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Routed end-to-end: byte-identical traces, zero trajectory perturbation.
//
// Same 2x3 dead-edge world as test_adaptive_routing.cpp: the shortest
// 0 -> 2 corridor fails (herald visibility 0.25 on edge (1, 2)), so a
// run exercises submit, admission, per-hop spans, an EGP error, one
// reroute, and a completed envelope — every span family in one trace.

struct TracedWorld {
  routing::Graph grid;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;
  Tracer tracer;

  explicit TracedWorld(qstate::BackendKind backend, std::uint64_t seed,
                       bool traced)
      : grid(routing::Graph::grid(2, 3)) {
    const std::size_t dead = grid.find_edge(1, 2);
    NetworkConfig nc =
        routing::make_network_config(grid, core::LinkConfig{}, seed);
    nc.link.backend = backend;
    nc.link.pauli_twirl_installs =
        backend == qstate::BackendKind::kBellDiagonal;
    nc.link.scenario = hw::ScenarioParams::lab();
    nc.link.scenario.nv.carbon_t2_ns = 0.5e9;
    nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
    nc.configure_link = [dead](std::size_t link, core::LinkConfig& lc) {
      if (link == dead) lc.scenario.herald.visibility = 0.25;
    };
    net = std::make_unique<QuantumNetwork>(nc);
    swap = std::make_unique<SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.cost = routing::CostModel::kHopCount;
    rc.k_candidates = 4;
    rc.max_reroutes = 3;
    router = std::make_unique<routing::Router>(grid, *swap, rc, &collector);
    const double menu[] = {0.7};
    router->annotate_from_network(menu);
    if (traced) {
      router->set_tracer(&tracer);
      swap->set_tracer(&tracer);
    }
  }

  /// Run one 0 -> 2 request to settlement; returns a byte-exact
  /// delivery trace (the trajectory fingerprint, tracer-independent).
  std::string run_request() {
    std::string deliveries;
    router->set_deliver_handler([&](const E2eOk& ok) {
      char line[160];
      std::snprintf(line, sizeof(line), "%u %u/%u s%d %.17g %lld\n",
                    ok.request_id, ok.pair_index + 1, ok.total_pairs,
                    ok.swaps, ok.fidelity,
                    static_cast<long long>(ok.deliver_time));
      deliveries += line;
      swap->release(ok);
    });
    E2eRequest req;
    req.src = 0;
    req.dst = 2;
    req.num_pairs = 2;
    req.min_fidelity = 0.25;
    req.link_min_fidelity = 0.7;
    net->start();
    router->submit(req);
    const auto& stats = router->stats();
    for (int i = 0; i < 4000 && stats.completed + stats.failed < 1; ++i) {
      net->run_for(sim::duration::milliseconds(1));
    }
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(tracer.violations(), std::vector<std::string>{});
    char tail[64];
    std::snprintf(tail, sizeof(tail), "end %lld %llu\n",
                  static_cast<long long>(net->simulator().now()),
                  static_cast<unsigned long long>(
                      net->simulator().events_processed()));
    deliveries += tail;
    return deliveries;
  }
};

TEST(TracedRun, ByteIdenticalTracePerSeedOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    TracedWorld first(backend, 11, /*traced=*/true);
    TracedWorld second(backend, 11, /*traced=*/true);
    const std::string d1 = first.run_request();
    const std::string d2 = second.run_request();
    EXPECT_EQ(d1, d2);
    ASSERT_GT(first.tracer.num_events(), 0u);
    EXPECT_EQ(first.tracer.jsonl(), second.tracer.jsonl());
    EXPECT_EQ(first.tracer.chrome_json(), second.tracer.chrome_json());
  }
}

TEST(TracedRun, TraceCoversTheWholeLifecycle) {
  TracedWorld w(qstate::BackendKind::kBellDiagonal, 11, /*traced=*/true);
  w.run_request();
  const std::string jsonl = w.tracer.jsonl();
  for (const char* name :
       {"\"submit\"", "\"request\"", "\"hop\"", "\"pair_matched\"",
        "\"reroute\"", "\"deliver\"", "\"error\""}) {
    EXPECT_NE(jsonl.find(name), std::string::npos) << name;
  }
  EXPECT_NE(jsonl.find("\"outcome\":\"completed\""), std::string::npos);
  // The rerouted resubmission keeps its trace id: every attributed
  // event of this single-request run is trace 1.
  EXPECT_EQ(jsonl.find("\"trace\":2"), std::string::npos);
}

TEST(TracedRun, AttachingATracerDoesNotPerturbTheTrajectory) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    TracedWorld bare(backend, 11, /*traced=*/false);
    TracedWorld traced(backend, 11, /*traced=*/true);
    const std::string d_bare = bare.run_request();
    const std::string d_traced = traced.run_request();
    // Identical deliveries, end time, and event count: the tracer is a
    // pure observer (the fingerprint includes events_processed).
    EXPECT_EQ(d_bare, d_traced);
    EXPECT_EQ(bare.tracer.num_events(), 0u);
    // Collector outputs match exactly too.
    EXPECT_EQ(bare.collector.route_length().count(),
              traced.collector.route_length().count());
    EXPECT_DOUBLE_EQ(bare.collector.route_length().mean(),
                     traced.collector.route_length().mean());
    EXPECT_DOUBLE_EQ(bare.collector.request_latency_hist().sum(),
                     traced.collector.request_latency_hist().sum());
    EXPECT_EQ(bare.collector.reroutes(), traced.collector.reroutes());
  }
}

TEST(TracedRun, RoutedOriginLookupsWork) {
  TracedWorld w(qstate::BackendKind::kBellDiagonal, 11, /*traced=*/true);
  w.run_request();
  ASSERT_TRUE(w.collector.has_origin(0));  // origin node of the request
  const auto* km = w.collector.find_origin(0);
  ASSERT_NE(km, nullptr);
  EXPECT_EQ(km->pairs_delivered, 2u);
  EXPECT_EQ(&w.collector.by_origin(0), km);
  EXPECT_EQ(w.collector.find_origin(5), nullptr);
}

TEST(TracedRun, SnapshotMergesEverySurface) {
  TracedWorld w(qstate::BackendKind::kBellDiagonal, 11, /*traced=*/true);
  w.net->simulator().set_telemetry(true);
  w.run_request();
  Snapshot snap;
  snap.collector = &w.collector;
  snap.router = &w.router->stats();
  snap.swap = &w.swap->stats();
  snap.simulator = &w.net->simulator();
  const std::string json = snap.json();
  for (const char* key :
       {"\"router\"", "\"swap\"", "\"distributions\"", "\"engine\"",
        "\"request_latency_s\"", "\"completed\":1", "\"labels\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.find("\"backend\""), std::string::npos);  // null source
}

}  // namespace
}  // namespace qlink::obs
