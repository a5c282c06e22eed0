// Micro-benchmarks of the substrate hot paths: event scheduling (bare,
// labeled, telemetered, with a cancelled timeout), the periodic timer,
// density-matrix operations, the herald model, a full protocol cycle,
// and the routing layer's k-shortest path search. These bound the simulation throughput
// reported in EXPERIMENTS.md.
//
// Self-timed (no external benchmark library): each case runs batches of
// its inner loop until `--min-seconds` of wall time accumulates, then
// reports ops/s over the timed batches. The JSON rows are keyed by
// "scenario" so tools/bench_diff.py can gate events_per_sec against the
// checked-in baseline with its perf tolerance class (wall-clock noise
// on shared CI runners is absorbed by the perf factor, not a tight
// percentage).
//
// Usage: bench_micro_engine [--min-seconds S] [--json PATH|-]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/network.hpp"
#include "hw/herald_model.hpp"
#include "quantum/bell.hpp"
#include "quantum/channels.hpp"
#include "quantum/registry.hpp"
#include "routing/graph.hpp"
#include "routing/path_selector.hpp"
#include "sim/simulator.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

struct Options {
  double min_seconds = 0.5;  // timed wall budget per case
  std::uint64_t seed = 7;
};

/// A case's row: `ops` over `wall_seconds`, reported as events_per_sec
/// (named for bench_diff's perf gate).
Row timing_row(const char* scenario, std::uint64_t ops,
               double wall_seconds) {
  Row row;
  row.text("scenario", scenario)
      .count("ops", ops)
      .num("wall_seconds", wall_seconds, 4)
      .num("events_per_sec",
           per_second(static_cast<double>(ops), wall_seconds), 1);
  return row;
}

/// Run `body(batch_ops)` batches until `min_seconds` of wall time
/// accrues (after one untimed warm-up batch), and report ops/s.
Row time_case(const char* scenario, double min_seconds,
              std::uint64_t batch_ops,
              const std::function<void(std::uint64_t)>& body) {
  body(batch_ops);  // warm-up: first-touch allocations, caches
  std::uint64_t ops = 0;
  const Stopwatch wall;
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    body(batch_ops);
    ops += batch_ops;
    elapsed = wall.seconds();
  }
  return timing_row(scenario, ops, elapsed);
}

Row bench_schedule_and_run(const Options& opt, const char* scenario,
                           bool label, bool telemetry) {
  sim::Simulator s;
  s.set_telemetry(telemetry);
  std::uint64_t sink = 0;
  return time_case(scenario, opt.min_seconds, 100000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      s.schedule_in(10, [&sink] { ++sink; },
                    label ? "bench.event" : nullptr);
      s.step();
    }
  });
}

/// The station's mhp.timeout pattern: each round schedules an event
/// and a later timeout, cancels the timeout and runs the event, so
/// half of what is scheduled never runs. "ops" are rounds.
Row bench_schedule_cancel(const Options& opt) {
  sim::Simulator s;
  std::uint64_t sink = 0;
  return time_case("event_schedule_cancel", opt.min_seconds, 100000,
                   [&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) {
                       const sim::EventId timeout = s.schedule_in(
                           20, [&sink] { ++sink; }, "bench.timeout");
                       s.schedule_in(10, [&sink] { ++sink; }, "bench.event");
                       s.cancel(timeout);
                       s.step();
                     }
                   });
}

Row bench_periodic_timer(const Options& opt) {
  sim::Simulator s;
  std::uint64_t ticks = 0;
  sim::PeriodicTimer t(s, 100, [&ticks] { ++ticks; }, "bench.tick");
  t.start();
  return time_case("periodic_timer_tick", opt.min_seconds, 100000,
                   [&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) s.step();
                   });
}

Row bench_single_qubit_kraus(const Options& opt) {
  sim::Random rnd(opt.seed);
  quantum::QuantumRegistry reg(rnd);
  const auto q = reg.create();
  const auto kraus = quantum::channels::t1t2(1000.0, 2.86e6, 1.0e6);
  const quantum::QubitId ids[] = {q};
  return time_case("single_qubit_kraus", opt.min_seconds, 20000,
                   [&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) {
                       reg.apply_kraus(kraus, ids);
                     }
                   });
}

Row bench_two_qubit_fidelity(const Options& opt) {
  sim::Random rnd(opt.seed);
  quantum::QuantumRegistry reg(rnd);
  const auto a = reg.create();
  const auto b = reg.create();
  const quantum::QubitId ab[] = {a, b};
  reg.set_state(ab, quantum::DensityMatrix::from_pure(
                        quantum::bell::state_vector(
                            quantum::bell::BellState::kPsiPlus)));
  const auto& psi =
      quantum::bell::state_vector(quantum::bell::BellState::kPsiPlus);
  double sink = 0.0;
  Row row = time_case("two_qubit_fidelity", opt.min_seconds, 20000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += reg.fidelity(ab, psi);
                        }
                      });
  if (sink < 0.0) std::printf("%f\n", sink);  // keep the loop observable
  return row;
}

Row bench_herald_compute(const Options& opt) {
  const hw::HeraldModel model(hw::ScenarioParams::lab().herald);
  double alpha = 0.05;
  double sink = 0.0;
  Row row = time_case("herald_model_compute", opt.min_seconds, 200,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += model.compute(alpha, alpha).p_success();
                          // defeat caching: measure the full pipeline
                          alpha += 1e-6;
                        }
                      });
  if (sink < 0.0) std::printf("%f\n", sink);
  return row;
}

Row bench_herald_cached(const Options& opt) {
  const hw::HeraldModel model(hw::ScenarioParams::lab().herald);
  double sink = 0.0;
  Row row = time_case("herald_model_cached_lookup", opt.min_seconds,
                      100000, [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += model.distribution(0.1, 0.1).p_success();
                        }
                      });
  if (sink < 0.0) std::printf("%f\n", sink);
  return row;
}

Row bench_protocol_millisecond(const Options& opt) {
  // End-to-end cost of one simulated millisecond of an idle-ish link
  // with an active MD request stream (the dominant bench workload).
  // "ops" are engine events, so events_per_sec is real event throughput.
  core::LinkConfig cfg;
  cfg.scenario = hw::ScenarioParams::lab();
  cfg.seed = opt.seed;
  core::Link link(cfg);
  link.start();
  core::CreateRequest r;
  r.type = core::RequestType::kCreateMeasure;
  r.num_pairs = 60000;
  r.min_fidelity = 0.6;
  r.priority = core::Priority::kMeasureDirectly;
  r.consecutive = true;
  link.egp_a().create(r);

  link.run_for(sim::duration::milliseconds(1));  // warm-up
  const std::uint64_t events_before = link.simulator().events_processed();
  const Stopwatch wall;
  double elapsed = 0.0;
  while (elapsed < opt.min_seconds) {
    link.run_for(sim::duration::milliseconds(1));
    elapsed = wall.seconds();
  }
  return timing_row("protocol_simulated_millisecond",
                    link.simulator().events_processed() - events_before,
                    elapsed);
}

Row bench_path_search(const Options& opt) {
  // One island of the islands workload's dragonfly: 8 groups of 32
  // routers, ~4k edges. Uncached Yen, k = 2, hop count, over a fixed
  // seeded list of endpoint pairs; "ops" are searches.
  const routing::Graph island = routing::Graph::dragonfly(8, 32);
  const routing::PathSelector sel(island, routing::CostModel::kHopCount);
  sim::Random rnd(opt.seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  const auto last = static_cast<std::int64_t>(island.num_nodes() - 1);
  while (pairs.size() < 256) {
    const auto src = static_cast<std::uint32_t>(rnd.uniform_int(0, last));
    const auto dst = static_cast<std::uint32_t>(rnd.uniform_int(0, last));
    if (src != dst) pairs.emplace_back(src, dst);
  }
  std::size_t next = 0;
  std::size_t sink = 0;
  Row row = time_case("path_search_dragonfly_island", opt.min_seconds, 256,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          const auto [src, dst] = pairs[next];
                          next = (next + 1) % pairs.size();
                          sink += sel.k_shortest(src, dst, 2).size();
                        }
                      });
  if (sink == 0) std::printf("no paths\n");  // keep the loop observable
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Harness h("micro_engine");
  h.parse(argc, argv, "[--min-seconds S]",
          [&opt](const std::string& arg, auto next) {
            if (arg != "--min-seconds") return false;
            opt.min_seconds = next.real();
            return true;
          });
  opt.seed = h.args.seed;
  if (opt.min_seconds <= 0.0) h.usage();

  print_header("Engine micro-benchmarks: substrate hot-path throughput");
  h.columns({{"scenario", "scenario", -32},
             {"ops", "ops", 12},
             {"wall_seconds", "wall(s)", 9},
             {"events_per_sec", "events/s", 14}});

  h.add(bench_schedule_and_run(opt, "event_schedule_and_run", false, false));
  h.add(bench_schedule_and_run(opt, "event_schedule_labeled", true, false));
  h.add(bench_schedule_and_run(opt, "event_schedule_telemetry", true, true));
  h.add(bench_schedule_cancel(opt));
  h.add(bench_periodic_timer(opt));
  h.add(bench_single_qubit_kraus(opt));
  h.add(bench_two_qubit_fidelity(opt));
  h.add(bench_herald_compute(opt));
  h.add(bench_herald_cached(opt));
  h.add(bench_protocol_millisecond(opt));
  h.add(bench_path_search(opt));
  h.write();
  return 0;
}
