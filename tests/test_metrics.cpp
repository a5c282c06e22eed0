#include <gtest/gtest.h>

#include <cmath>

#include "metrics/collector.hpp"
#include "metrics/histogram.hpp"
#include "metrics/reservoir.hpp"
#include "metrics/stats.hpp"

namespace qlink::metrics {
namespace {

using core::EgpError;
using core::OkMessage;
using core::Priority;
using quantum::gates::Basis;

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(s.stderr_mean(), s.stddev() / std::sqrt(8.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RelativeDifference, MatchesPaperFootnote) {
  EXPECT_NEAR(relative_difference(1.0, 0.9), 0.1, 1e-12);
  EXPECT_NEAR(relative_difference(0.9, 1.0), 0.1, 1e-12);
  EXPECT_EQ(relative_difference(0.0, 0.0), 0.0);
  EXPECT_NEAR(relative_difference(-2.0, 2.0), 2.0, 1e-12);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile(v, 100), 5.0);
  EXPECT_EQ(percentile(v, 50), 3.0);
  EXPECT_NEAR(percentile(v, 25), 2.0, 1e-12);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

OkMessage make_ok(std::uint32_t origin, std::uint32_t create_id,
                  std::uint16_t pair_index, std::uint16_t total) {
  OkMessage ok;
  ok.origin_node = origin;
  ok.create_id = create_id;
  ok.pair_index = pair_index;
  ok.total_pairs = total;
  ok.ent_id = {0, 1, create_id * 100 + pair_index};
  ok.goodness = 0.7;
  return ok;
}

TEST(Collector, ThroughputCountsPairsOverElapsed) {
  Collector c;
  c.begin(0);
  c.record_create(0, 1, Priority::kMeasureDirectly, 2, 0);
  c.record_ok(make_ok(0, 1, 0, 2), Priority::kMeasureDirectly,
              sim::duration::seconds(1), std::nullopt);
  c.record_ok(make_ok(0, 1, 1, 2), Priority::kMeasureDirectly,
              sim::duration::seconds(2), std::nullopt);
  c.end(sim::duration::seconds(4));
  EXPECT_NEAR(c.throughput(Priority::kMeasureDirectly), 0.5, 1e-12);
  EXPECT_NEAR(c.total_throughput(), 0.5, 1e-12);
}

TEST(Collector, LatenciesPerPaperDefinitions) {
  Collector c;
  c.begin(0);
  // Request for 2 pairs created at t=1s; pairs at 3s and 5s.
  c.record_create(0, 7, Priority::kNetworkLayer, 2,
                  sim::duration::seconds(1));
  c.record_ok(make_ok(0, 7, 0, 2), Priority::kNetworkLayer,
              sim::duration::seconds(3), std::nullopt);
  c.record_ok(make_ok(0, 7, 1, 2), Priority::kNetworkLayer,
              sim::duration::seconds(5), std::nullopt);
  c.end(sim::duration::seconds(5));
  const auto& km = c.kind(Priority::kNetworkLayer);
  // Pair latencies 2s and 4s.
  EXPECT_NEAR(km.pair_latency_s.mean(), 3.0, 1e-9);
  // Request latency 4s; scaled latency 4/2 = 2s.
  EXPECT_NEAR(km.request_latency_s.mean(), 4.0, 1e-9);
  EXPECT_NEAR(km.scaled_latency_s.mean(), 2.0, 1e-9);
  EXPECT_EQ(km.requests_completed, 1u);
}

TEST(Collector, KindsAreSeparated) {
  Collector c;
  c.begin(0);
  c.record_create(0, 1, Priority::kNetworkLayer, 1, 0);
  c.record_create(0, 2, Priority::kMeasureDirectly, 1, 0);
  c.record_ok(make_ok(0, 1, 0, 1), Priority::kNetworkLayer,
              sim::duration::seconds(1), std::nullopt);
  c.end(sim::duration::seconds(1));
  EXPECT_EQ(c.kind(Priority::kNetworkLayer).pairs_delivered, 1u);
  EXPECT_EQ(c.kind(Priority::kMeasureDirectly).pairs_delivered, 0u);
}

TEST(Collector, FairnessSplitByOrigin) {
  Collector c;
  c.begin(0);
  c.record_create(0, 1, Priority::kMeasureDirectly, 1, 0);
  c.record_create(1, 1, Priority::kMeasureDirectly, 1, 0);
  c.record_ok(make_ok(0, 1, 0, 1), Priority::kMeasureDirectly,
              sim::duration::seconds(1), std::nullopt);
  auto ok_b = make_ok(1, 1, 0, 1);
  ok_b.ent_id.seq_mhp = 999;
  c.record_ok(ok_b, Priority::kMeasureDirectly, sim::duration::seconds(2),
              std::nullopt);
  c.end(sim::duration::seconds(2));
  ASSERT_TRUE(c.has_origin(0));
  ASSERT_TRUE(c.has_origin(1));
  EXPECT_EQ(c.by_origin(0).pairs_delivered, 1u);
  EXPECT_EQ(c.by_origin(1).pairs_delivered, 1u);
}

TEST(Collector, QberAndFidelityReconstruction) {
  Collector c;
  // Psi+ correlations: equal in X and Y, different in Z.
  for (int i = 0; i < 90; ++i) c.record_correlation(Basis::kX, 1, 1, 1);
  for (int i = 0; i < 10; ++i) c.record_correlation(Basis::kX, 0, 1, 1);
  for (int i = 0; i < 100; ++i) c.record_correlation(Basis::kY, 0, 0, 1);
  for (int i = 0; i < 100; ++i) c.record_correlation(Basis::kZ, 0, 1, 1);
  EXPECT_NEAR(*c.qber(Basis::kX), 0.1, 1e-12);
  EXPECT_NEAR(*c.qber(Basis::kY), 0.0, 1e-12);
  EXPECT_NEAR(*c.qber(Basis::kZ), 0.0, 1e-12);
  EXPECT_NEAR(*c.fidelity_from_qber(), 0.95, 1e-12);
}

TEST(Collector, QberUsesHeraldedState) {
  Collector c;
  // For Psi- in Z, different outcomes are ideal.
  c.record_correlation(Basis::kZ, 0, 1, 2);
  EXPECT_NEAR(*c.qber(Basis::kZ), 0.0, 1e-12);
  c.record_correlation(Basis::kZ, 1, 1, 2);
  EXPECT_NEAR(*c.qber(Basis::kZ), 0.5, 1e-12);
}

TEST(Collector, MissingBasisMeansNoFidelityEstimate) {
  Collector c;
  c.record_correlation(Basis::kX, 1, 1, 1);
  EXPECT_FALSE(c.fidelity_from_qber().has_value());
  EXPECT_FALSE(c.qber(Basis::kZ).has_value());
}

TEST(Collector, ErrorsCounted) {
  Collector c;
  c.record_err({1, EgpError::kTimeout, 0, 0, 0});
  c.record_err({2, EgpError::kExpired, 0, 0, 0});
  c.record_err({3, EgpError::kExpired, 0, 0, 0});
  EXPECT_EQ(c.errors(EgpError::kTimeout), 1u);
  EXPECT_EQ(c.total_expires(), 2u);
  EXPECT_EQ(c.errors(EgpError::kDenied), 0u);
}

TEST(Collector, FidelitySamplesAggregate) {
  Collector c;
  c.begin(0);
  c.record_create(0, 1, Priority::kCreateKeep, 2, 0);
  c.record_ok(make_ok(0, 1, 0, 2), Priority::kCreateKeep,
              sim::duration::seconds(1), 0.8);
  c.record_ok(make_ok(0, 1, 1, 2), Priority::kCreateKeep,
              sim::duration::seconds(2), 0.6);
  EXPECT_NEAR(c.kind(Priority::kCreateKeep).fidelity.mean(), 0.7, 1e-12);
  EXPECT_EQ(c.kind(Priority::kCreateKeep).fidelity.count(), 2u);
}

TEST(Collector, QueueLengthSampling) {
  Collector c;
  c.sample_queue_length(2);
  c.sample_queue_length(4);
  EXPECT_NEAR(c.queue_length().mean(), 3.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Shard-mergeable statistics (ISSUE 7)

TEST(RunningStat, MergeMatchesSingleStream) {
  RunningStat a, b, whole;
  for (int i = 1; i <= 1000; ++i) {
    const double x = 0.001 * i * i;  // non-uniform: exercises m2
    (i <= 400 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9 * whole.variance());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmptyEitherWay) {
  RunningStat filled, empty;
  filled.add(1.0);
  filled.add(3.0);
  RunningStat lhs = filled;
  lhs.merge(empty);
  EXPECT_EQ(lhs.count(), 2u);
  EXPECT_NEAR(lhs.mean(), 2.0, 1e-12);
  RunningStat rhs;
  rhs.merge(filled);
  EXPECT_EQ(rhs.count(), 2u);
  EXPECT_NEAR(rhs.mean(), 2.0, 1e-12);
  EXPECT_EQ(rhs.min(), 1.0);
  EXPECT_EQ(rhs.max(), 3.0);
}

TEST(Histogram, DeltaSinceIsolatesTheNewSamples) {
  Histogram earlier, only_new;
  for (int i = 1; i <= 100; ++i) earlier.record(1e-3 * i);
  Histogram later = earlier;
  for (int i = 1; i <= 50; ++i) {
    later.record(0.5 + 1e-3 * i);
    only_new.record(0.5 + 1e-3 * i);
  }
  const Histogram delta = later.delta_since(earlier);
  EXPECT_EQ(delta.count(), only_new.count());
  EXPECT_NEAR(delta.sum(), only_new.sum(), 1e-9);
  EXPECT_DOUBLE_EQ(delta.p50(), only_new.p50());
  EXPECT_DOUBLE_EQ(delta.p99(), only_new.p99());
  for (int i = 0; i < Histogram::kBins; ++i) {
    ASSERT_EQ(delta.bin_count(i), only_new.bin_count(i)) << "bin " << i;
  }
  // Self-delta is empty.
  EXPECT_EQ(later.delta_since(later).count(), 0u);
}

TEST(Histogram, SinceReadsMatchTheBuiltDeltaExactly) {
  Histogram earlier;
  earlier.record(1e-12);  // underflow before the interval
  for (int i = 1; i <= 100; ++i) earlier.record(1e-3 * i);
  Histogram later = earlier;
  later.record(2e-12);  // underflow inside it
  for (int i = 1; i <= 37; ++i) later.record(0.5 + 7e-3 * i);
  later.record(5e3);  // overflow
  for (const Histogram* from : {&earlier, &later}) {
    const Histogram delta = later.delta_since(*from);
    EXPECT_EQ(later.count_since(*from), delta.count());
    for (const double pct : {0.0, 1.0, 50.0, 99.0, 100.0}) {
      // Bit-equal: the monitor's JSONL must not change by a digit.
      EXPECT_EQ(later.percentile_since(*from, pct), delta.percentile(pct))
          << "pct " << pct;
    }
  }
  EXPECT_EQ(later.count_since(later), 0u);
  EXPECT_EQ(later.percentile_since(later, 99.0), 0.0);
}

TEST(Histogram, ExactExtremesSurviveBinClamping) {
  Histogram h;
  EXPECT_EQ(h.min(), 0.0);  // RunningStat convention when empty
  EXPECT_EQ(h.max(), 0.0);
  h.record(1e-12);  // below kMinValue: underflow bin
  h.record(0.5);
  h.record(5e3);  // at/above kMaxValue: overflow bin
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  // The bins clamp, the extremes do not: outliers report faithfully.
  EXPECT_DOUBLE_EQ(h.min(), 1e-12);
  EXPECT_DOUBLE_EQ(h.max(), 5e3);
  EXPECT_LT(h.min(), Histogram::kMinValue);
  EXPECT_GE(h.max(), Histogram::kMaxValue);
  // delta_since carries the stream-cumulative extremes (interval-local
  // ones are not derivable from two cumulative snapshots).
  const Histogram delta = h.delta_since(Histogram{});
  EXPECT_DOUBLE_EQ(delta.min(), 1e-12);
  EXPECT_DOUBLE_EQ(delta.max(), 5e3);
}

TEST(Histogram, PercentilesStayInsideObservedExtremes) {
  // 0.702 sits near the bottom of its ~7%-wide bin and 0.745 near the
  // top, so interpolating inside the partly filled bin overshoots max()
  // on the first and undershoots min() on the second.
  for (const double x : {0.702, 0.745}) {
    Histogram h;
    for (int i = 0; i < 100; ++i) h.record(x);
    EXPECT_LE(h.p99(), h.max()) << x;
    EXPECT_GE(h.p50(), h.min()) << x;
  }
}

TEST(Histogram, MergeTakesElementwiseExtremes) {
  Histogram a, b;
  a.record(0.3);
  a.record(2.0);
  b.record(1e-10);  // an underflow outlier must survive the merge
  b.record(0.7);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), 1e-10);
  EXPECT_DOUBLE_EQ(a.max(), 2.0);
  // An empty side is the identity in either direction (the sentinels
  // absorb under std::min/std::max).
  Histogram empty;
  a += empty;
  EXPECT_DOUBLE_EQ(a.min(), 1e-10);
  EXPECT_DOUBLE_EQ(a.max(), 2.0);
  Histogram lhs;
  lhs += a;
  EXPECT_DOUBLE_EQ(lhs.min(), 1e-10);
  EXPECT_DOUBLE_EQ(lhs.max(), 2.0);
  EXPECT_EQ(lhs.count(), 4u);
}

TEST(Reservoir, KeepsEverySampleUnderCapacity) {
  Reservoir r(8);
  for (int i = 1; i <= 5; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.count(), 5u);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.quantile(50.0), 3.0);  // exact, not binned
  EXPECT_DOUBLE_EQ(r.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.quantile(100.0), 5.0);
}

TEST(Reservoir, EmptyIsSafe) {
  Reservoir r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.quantile(50.0), 0.0);
}

TEST(Reservoir, DeterministicPerSeed) {
  Reservoir a(64, 42), b(64, 42), c(64, 43);
  for (int i = 0; i < 10000; ++i) {
    const double x = 1e-4 * i;
    a.add(x);
    b.add(x);
    c.add(x);
  }
  EXPECT_EQ(a.count(), 10000u);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a.samples(), b.samples());  // same seed -> byte-identical
  EXPECT_NE(a.samples(), c.samples());  // different seed -> different draw
}

TEST(Reservoir, QuantilesTrackTheStreamAndTheHistogram) {
  // 100k near-uniform samples on (0, 1]: the 4096-sample reservoir's
  // quantiles must sit close to the exact ones and agree with the
  // binned Histogram estimate well within its ~8% bin width.
  Reservoir r(4096, 7);
  Histogram h;
  for (int i = 0; i < 100000; ++i) {
    // Weyl sequence: equidistributed, deterministic, order-scrambled.
    const double x =
        static_cast<double>((i * 2654435761ULL) % 100000u + 1) * 1e-5;
    r.add(x);
    h.record(x);
  }
  EXPECT_EQ(r.count(), 100000u);
  EXPECT_EQ(r.size(), 4096u);
  EXPECT_NEAR(r.quantile(50.0), 0.5, 0.05);
  EXPECT_NEAR(r.quantile(99.0), 0.99, 0.05);
  EXPECT_NEAR(r.quantile(50.0), h.p50(), 0.15 * h.p50());
  EXPECT_NEAR(r.quantile(99.0), h.p99(), 0.15 * h.p99());
}

TEST(Reservoir, MergeIsExactUnionUnderCapacity) {
  Reservoir a(16), b(16);
  for (double x : {1.0, 2.0, 3.0}) a.add(x);
  for (double x : {10.0, 20.0}) b.add(x);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a.quantile(100.0), 20.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
}

TEST(Reservoir, MergeIsDeterministicAndWeightBounded) {
  Reservoir a1(32, 1), a2(32, 1), b1(32, 2), b2(32, 2);
  for (int i = 0; i < 5000; ++i) {
    a1.add(1e-4 * i);
    a2.add(1e-4 * i);
    b1.add(5.0 + 1e-4 * i);
    b2.add(5.0 + 1e-4 * i);
  }
  a1.merge(b1);
  a2.merge(b2);
  EXPECT_EQ(a1.count(), 10000u);
  EXPECT_EQ(a1.size(), 32u);  // stays at capacity
  EXPECT_EQ(a1.samples(), a2.samples());  // same states -> same draw
  // Both halves survive the weighted draw (each holds half the mass).
  std::size_t low = 0, high = 0;
  for (const double x : a1.samples()) (x < 5.0 ? low : high)++;
  EXPECT_GT(low, 0u);
  EXPECT_GT(high, 0u);
}

TEST(Collector, OpenRequestTrackingSurfacesInFlightState) {
  Collector c;
  EXPECT_EQ(c.open_requests(), 0u);
  EXPECT_FALSE(c.oldest_open_created().has_value());
  c.record_create(0, 1, Priority::kNetworkLayer, 2,
                  sim::duration::seconds(1));
  c.record_create(0, 2, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(3));
  EXPECT_EQ(c.open_requests(), 2u);
  ASSERT_TRUE(c.oldest_open_created().has_value());
  EXPECT_EQ(*c.oldest_open_created(), sim::duration::seconds(1));
  // Completing the older request leaves the younger as the oldest.
  c.record_ok(make_ok(0, 1, 0, 2), Priority::kNetworkLayer,
              sim::duration::seconds(4), std::nullopt);
  c.record_ok(make_ok(0, 1, 1, 2), Priority::kNetworkLayer,
              sim::duration::seconds(5), std::nullopt);
  EXPECT_EQ(c.open_requests(), 1u);
  EXPECT_EQ(*c.oldest_open_created(), sim::duration::seconds(3));
}

TEST(Collector, MergeMatchesSingleStream) {
  // The same record stream fed whole into one collector and split
  // across two shards must yield identical outputs after merge().
  Collector whole, a, b;
  whole.begin(0);
  a.begin(0);
  b.begin(sim::duration::seconds(2));

  const auto feed = [](Collector& c1, Collector& c2, std::uint32_t origin,
                       std::uint32_t id, double fid, sim::SimTime created,
                       sim::SimTime done) {
    for (Collector* c : {&c1, &c2}) {
      c->record_create(origin, id, Priority::kNetworkLayer, 1, created);
      c->record_ok(make_ok(origin, id, 0, 1), Priority::kNetworkLayer,
                   done, fid);
    }
  };
  feed(whole, a, 0, 1, 0.9, 0, sim::duration::seconds(1));
  feed(whole, a, 1, 2, 0.7, sim::duration::seconds(1),
       sim::duration::seconds(2));
  feed(whole, b, 0, 3, 0.8, sim::duration::seconds(2),
       sim::duration::seconds(4));
  for (Collector* c : {&whole, &a}) {
    c->record_admission_wait(0.25);
    c->record_err({9, EgpError::kTimeout, 0, 0, 0});
    c->record_correlation(Basis::kX, 1, 1, 1);
    c->sample_queue_length(3);
  }
  for (Collector* c : {&whole, &b}) {
    c->record_admission_wait(0.75);
    c->record_err({8, EgpError::kExpired, 0, 0, 0});
    c->record_correlation(Basis::kX, 0, 1, 1);
    c->sample_queue_length(5);
  }
  a.end(sim::duration::seconds(2));
  b.end(sim::duration::seconds(4));
  whole.end(sim::duration::seconds(4));

  a.merge(b);

  const auto& ka = a.kind(Priority::kNetworkLayer);
  const auto& kw = whole.kind(Priority::kNetworkLayer);
  EXPECT_EQ(ka.pairs_delivered, kw.pairs_delivered);
  EXPECT_EQ(ka.requests_completed, kw.requests_completed);
  EXPECT_EQ(ka.requests_submitted, kw.requests_submitted);
  EXPECT_NEAR(ka.request_latency_s.mean(), kw.request_latency_s.mean(),
              1e-9);
  EXPECT_NEAR(ka.request_latency_s.variance(),
              kw.request_latency_s.variance(), 1e-9);
  EXPECT_NEAR(ka.fidelity.mean(), kw.fidelity.mean(), 1e-9);
  EXPECT_EQ(a.total_pairs_delivered(), whole.total_pairs_delivered());
  EXPECT_NEAR(a.total_throughput(), whole.total_throughput(), 1e-9);

  // Origin union: 0 saw two requests, 1 saw one.
  ASSERT_TRUE(a.has_origin(0));
  ASSERT_TRUE(a.has_origin(1));
  EXPECT_EQ(a.by_origin(0).pairs_delivered,
            whole.by_origin(0).pairs_delivered);
  EXPECT_EQ(a.by_origin(1).pairs_delivered,
            whole.by_origin(1).pairs_delivered);

  // Counters, errors, correlations, sampled stats.
  EXPECT_EQ(a.errors(EgpError::kTimeout), 1u);
  EXPECT_EQ(a.errors(EgpError::kExpired), 1u);
  EXPECT_NEAR(*a.qber(Basis::kX), *whole.qber(Basis::kX), 1e-12);
  EXPECT_NEAR(a.queue_length().mean(), whole.queue_length().mean(), 1e-9);
  EXPECT_NEAR(a.admission_wait().mean(), whole.admission_wait().mean(),
              1e-9);

  // Histograms merge bin-exactly; reservoirs keep every sample while
  // under capacity, so their quantiles match the whole stream too.
  EXPECT_EQ(a.request_latency_hist().count(),
            whole.request_latency_hist().count());
  EXPECT_DOUBLE_EQ(a.request_latency_hist().p99(),
                   whole.request_latency_hist().p99());
  EXPECT_EQ(a.admission_wait_hist().count(),
            whole.admission_wait_hist().count());
  EXPECT_EQ(a.request_latency_reservoir().count(),
            whole.request_latency_reservoir().count());
  EXPECT_DOUBLE_EQ(a.request_latency_reservoir().quantile(50.0),
                   whole.request_latency_reservoir().quantile(50.0));

  // All requests completed: no open state survives the merge.
  EXPECT_EQ(a.open_requests(), whole.open_requests());
  EXPECT_EQ(a.open_requests(), 0u);
}

TEST(Collector, MergeKeepsOpenRequestsFromBothShards) {
  Collector a, b;
  a.record_create(0, 1, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(5));
  b.record_create(1, 2, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(3));
  a.merge(b);
  EXPECT_EQ(a.open_requests(), 2u);
  ASSERT_TRUE(a.oldest_open_created().has_value());
  EXPECT_EQ(*a.oldest_open_created(), sim::duration::seconds(3));
}

TEST(Collector, MergeOfDuplicateOpenKeysKeepsTheEarlierCreate) {
  // A request handed off mid-flight can be open in both shards under
  // the same (origin, id) key. The union must keep ONE entry anchored
  // at the earlier submission — in either merge order (ISSUE 8), so a
  // stall watchdog reading oldest_open_created() after the merge sees
  // the true age, not the resubmission's.
  const auto shard = [](sim::SimTime created) {
    Collector c;
    c.record_create(0, 1, Priority::kNetworkLayer, 1, created);
    return c;
  };
  Collector a = shard(sim::duration::seconds(5));
  a.merge(shard(sim::duration::seconds(3)));
  EXPECT_EQ(a.open_requests(), 1u);
  ASSERT_TRUE(a.oldest_open_created().has_value());
  EXPECT_EQ(*a.oldest_open_created(), sim::duration::seconds(3));

  Collector b = shard(sim::duration::seconds(3));
  b.merge(shard(sim::duration::seconds(5)));
  EXPECT_EQ(b.open_requests(), 1u);
  ASSERT_TRUE(b.oldest_open_created().has_value());
  EXPECT_EQ(*b.oldest_open_created(), sim::duration::seconds(3));
}

TEST(Collector, OpenCapacityEvictsOldestDeterministically) {
  // ISSUE 9: at streaming scale an abandoned request must not leak
  // open_ state forever. With a cap of 2, the third create evicts the
  // oldest entry (smallest created, ties by key) and counts it.
  Collector c;
  c.set_open_capacity(2);
  c.record_create(0, 1, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(1));
  c.record_create(0, 2, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(2));
  EXPECT_EQ(c.open_evicted(), 0u);
  c.record_create(0, 3, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(3));
  EXPECT_EQ(c.open_requests(), 2u);
  EXPECT_EQ(c.open_evicted(), 1u);
  ASSERT_TRUE(c.oldest_open_created().has_value());
  EXPECT_EQ(*c.oldest_open_created(), sim::duration::seconds(2));

  // An OK for the evicted request is harmless: the pair still counts,
  // but no latency sample is recorded (its anchor is gone) and the
  // surviving entries are untouched.
  c.record_ok(make_ok(0, 1, 0, 1), Priority::kNetworkLayer,
              sim::duration::seconds(9), std::nullopt);
  EXPECT_EQ(c.open_requests(), 2u);
  EXPECT_EQ(c.kind(Priority::kNetworkLayer).pairs_delivered, 1u);
  EXPECT_EQ(c.kind(Priority::kNetworkLayer).request_latency_s.count(), 0u);

  // Requests that settle normally keep the map under the cap with no
  // further evictions.
  c.record_ok(make_ok(0, 2, 0, 1), Priority::kNetworkLayer,
              sim::duration::seconds(10), std::nullopt);
  c.record_create(0, 4, Priority::kNetworkLayer, 1,
                  sim::duration::seconds(11));
  EXPECT_EQ(c.open_requests(), 2u);
  EXPECT_EQ(c.open_evicted(), 1u);

  // Lowering the cap evicts immediately; merge() sums the counters and
  // re-applies the cap to the union.
  c.set_open_capacity(1);
  EXPECT_EQ(c.open_requests(), 1u);
  EXPECT_EQ(c.open_evicted(), 2u);
  EXPECT_EQ(*c.oldest_open_created(), sim::duration::seconds(11));

  Collector other;
  other.record_create(7, 9, Priority::kNetworkLayer, 1,
                      sim::duration::seconds(12));
  c.merge(other);
  EXPECT_EQ(c.open_requests(), 1u);
  EXPECT_EQ(c.open_evicted(), 3u);
  EXPECT_EQ(*c.oldest_open_created(), sim::duration::seconds(12));
}

}  // namespace
}  // namespace qlink::metrics
