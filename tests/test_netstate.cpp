#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/collector.hpp"
#include "metrics/edge_stats.hpp"
#include "metrics/spacesaving.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/json.hpp"
#include "obs/netstate.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

/// Network-state observability (ISSUE 8): the per-edge accounting
/// substrate (metrics::EdgeStats + the Space-Saving sketch), the
/// obs::NetState sampler, and the run-report renderer. Load-bearing
/// guarantees: sketch exactness under capacity and deterministic
/// merge, union lease coverage (utilization <= 1 by construction),
/// byte-identical JSONL per seed on both backends, and *zero*
/// trajectory perturbation from attaching the accounting hooks.

namespace qlink::obs {
namespace {

using metrics::EdgeStats;
using metrics::SpaceSaving;
using netlayer::E2eOk;
using netlayer::E2eRequest;
using netlayer::NetworkConfig;
using netlayer::QuantumNetwork;
using netlayer::SwapService;

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(NetStateConfig, RejectsANonPositiveInterval) {
  // A bad cadence fails loudly instead of being rewritten to 100 ms.
  sim::Simulator sim;
  const EdgeStats stats(3, 3);
  for (const sim::SimTime interval : {sim::SimTime{0}, sim::SimTime{-1}}) {
    NetStateConfig nsc;
    nsc.interval = interval;
    EXPECT_THROW((NetState{sim, stats, nsc}), std::invalid_argument);
  }
  EXPECT_NO_THROW((NetState{sim, stats, NetStateConfig{}}));
}

// ---------------------------------------------------------------------------
// Space-Saving sketch.

TEST(SpaceSaving, ExactWhileDistinctKeysFitCapacity) {
  SpaceSaving s(4);
  s.add(7, 3);
  s.add(2, 1);
  s.add(7, 2);
  s.add(9, 1);
  EXPECT_TRUE(s.exact());
  EXPECT_EQ(s.evictions(), 0u);
  EXPECT_EQ(s.total_weight(), 7u);
  const auto top = s.top(8);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(s.count_bound(7), 5u);
  // Ties rank by key ascending: 2 and 9 both have count 1.
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(top[2].key, 9u);
}

TEST(SpaceSaving, EvictionInheritsTheMinimumCountAsErrorBound) {
  SpaceSaving s(2);
  s.add(1);
  s.add(2);
  s.add(3);  // evicts the min-count tie's smallest key: 1
  EXPECT_FALSE(s.exact());
  EXPECT_EQ(s.evictions(), 1u);
  const auto top = s.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 3u);
  EXPECT_EQ(top[0].count, 2u);  // inherited 1 + its own 1
  EXPECT_EQ(top[0].error, 1u);  // true count of 3 is in [1, 2]
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(top[1].error, 0u);
  // Untracked keys are bounded by the sketch minimum.
  EXPECT_EQ(s.count_bound(1), 1u);
  EXPECT_EQ(s.total_weight(), 3u);
}

TEST(SpaceSaving, MergeOfShardsUnderCapacityEqualsTheSingleRun) {
  SpaceSaving whole(8), a(8), b(8);
  for (SpaceSaving* s : {&whole, &a}) {
    s->add(1, 4);
    s->add(2, 2);
  }
  for (SpaceSaving* s : {&whole, &b}) {
    s->add(2, 3);
    s->add(5, 1);
  }
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.total_weight(), whole.total_weight());
  const auto merged = a.top(8);
  const auto single = whole.top(8);
  ASSERT_EQ(merged.size(), single.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].key, single[i].key);
    EXPECT_EQ(merged[i].count, single[i].count);
    EXPECT_EQ(merged[i].error, single[i].error);
  }
  // Merge is deterministic: the other order yields the same ranking.
  SpaceSaving a2(8), b2(8);
  a2.add(1, 4);
  a2.add(2, 2);
  b2.add(2, 3);
  b2.add(5, 1);
  b2.merge(a2);
  const auto other_order = b2.top(8);
  ASSERT_EQ(other_order.size(), single.size());
  for (std::size_t i = 0; i < other_order.size(); ++i) {
    EXPECT_EQ(other_order[i].key, single[i].key);
    EXPECT_EQ(other_order[i].count, single[i].count);
  }
}

TEST(SpaceSaving, MergeTruncatesBackToCapacityDeterministically) {
  SpaceSaving a(2), b(2);
  a.add(1, 5);
  a.add(2, 1);
  b.add(3, 4);
  b.add(4, 2);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  const auto top = a.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);  // count 5
  EXPECT_EQ(top[1].key, 3u);  // count 4
  EXPECT_EQ(a.total_weight(), 12u);
  EXPECT_FALSE(a.exact());  // truncation dropped tracked keys
}

/// The std::map Space-Saving that the flat slot array replaced, kept
/// as the reference its outputs must equal: eviction takes the minimum
/// count with ties to the smallest key (map order), and the new key
/// inherits the evicted count as its error.
class MapSpaceSaving {
 public:
  explicit MapSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  void add(std::uint64_t key, std::uint64_t weight) {
    if (weight == 0) return;
    total_weight_ += weight;
    auto it = counters_.find(key);
    if (it != counters_.end()) {
      it->second.count += weight;
      return;
    }
    if (counters_.size() < capacity_) {
      counters_.emplace(key, Counter{weight, 0});
      return;
    }
    auto min_it = min_counter();
    const std::uint64_t floor = min_it->second.count;
    counters_.erase(min_it);
    counters_.emplace(key, Counter{floor + weight, floor});
    ++evictions_;
  }

  std::vector<SpaceSaving::Entry> top(std::size_t k) const {
    std::vector<SpaceSaving::Entry> entries;
    for (const auto& [key, counter] : counters_) {
      entries.push_back({key, counter.count, counter.error});
    }
    std::sort(entries.begin(), entries.end(),
              [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.key < b.key;
              });
    if (entries.size() > k) entries.resize(k);
    return entries;
  }

  std::uint64_t count_bound(std::uint64_t key) const {
    const auto it = counters_.find(key);
    if (it != counters_.end()) return it->second.count;
    std::uint64_t min_count = 0;
    bool first = true;
    for (const auto& [k, counter] : counters_) {
      if (first || counter.count < min_count) min_count = counter.count;
      first = false;
    }
    return min_count;
  }

  void merge(const MapSpaceSaving& other) {
    for (const auto& [key, counter] : other.counters_) {
      auto it = counters_.find(key);
      if (it != counters_.end()) {
        it->second.count += counter.count;
        it->second.error += counter.error;
      } else {
        counters_.emplace(key, counter);
      }
    }
    total_weight_ += other.total_weight_;
    evictions_ += other.evictions_;
    while (counters_.size() > capacity_) {
      counters_.erase(min_counter());
      ++evictions_;
    }
  }

  std::uint64_t total_weight() const { return total_weight_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Counter {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  std::map<std::uint64_t, Counter>::iterator min_counter() {
    auto min_it = counters_.begin();
    for (auto it = std::next(min_it); it != counters_.end(); ++it) {
      if (it->second.count < min_it->second.count) min_it = it;
    }
    return min_it;
  }

  std::size_t capacity_;
  std::map<std::uint64_t, Counter> counters_;
  std::uint64_t total_weight_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Every observable of the sketch equals the reference's, for tracked
/// and untracked keys alike.
void expect_same_sketch(const SpaceSaving& flat, const MapSpaceSaving& ref,
                        std::uint64_t key_range) {
  const auto got = flat.top(flat.capacity());
  const auto want = ref.top(flat.capacity());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "rank " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "rank " << i;
    EXPECT_EQ(got[i].error, want[i].error) << "rank " << i;
  }
  for (std::uint64_t key = 0; key < key_range; ++key) {
    EXPECT_EQ(flat.count_bound(key), ref.count_bound(key)) << "key " << key;
  }
  EXPECT_EQ(flat.evictions(), ref.evictions());
  EXPECT_EQ(flat.total_weight(), ref.total_weight());
}

TEST(SpaceSaving, FlatSlotsMatchTheMapReferenceOnRandomStreams) {
  // Few keys and weights 0-3 keep counts colliding, so nearly every
  // eviction and truncation has to break a count tie by key.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    for (std::size_t capacity = 1; capacity <= 8; ++capacity) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " capacity " +
                   std::to_string(capacity));
      const std::uint64_t keys = 2 * capacity + 3;
      SpaceSaving flat(capacity);
      MapSpaceSaving ref(capacity);
      for (int op = 0; op < 200; ++op) {
        if (rng() % 16 == 0) {
          SpaceSaving flat_other(capacity);
          MapSpaceSaving ref_other(capacity);
          for (int i = 0, n = static_cast<int>(rng() % 12); i < n; ++i) {
            const std::uint64_t key = rng() % keys;
            const std::uint64_t weight = rng() % 4;
            flat_other.add(key, weight);
            ref_other.add(key, weight);
          }
          flat.merge(flat_other);
          ref.merge(ref_other);
        } else {
          const std::uint64_t key = rng() % keys;
          const std::uint64_t weight = rng() % 4;
          flat.add(key, weight);
          ref.add(key, weight);
        }
        expect_same_sketch(flat, ref, keys + 1);
        if (HasFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EdgeStats: union lease coverage and counter accounting.

TEST(EdgeStats, UnionCoverageClipsOverlappingWindows) {
  EdgeStats es(2, 2);
  // [1, 3) and [2, 5): union covers [1, 5) = 4 s.
  es.on_lease(0, 10, sim::duration::seconds(1), sim::duration::seconds(3));
  es.on_lease(0, 11, sim::duration::seconds(2), sim::duration::seconds(5));
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(2)), 1.0);
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(4)), 3.0);
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(10)), 4.0);
  // The untouched edge stays at zero; counters track placements.
  EXPECT_DOUBLE_EQ(es.busy_seconds(1, sim::duration::seconds(10)), 0.0);
  EXPECT_EQ(es.edge(0).leases, 2u);
  EXPECT_EQ(es.lease_count(), 2u);
  // Coverage can never exceed elapsed: utilization <= 1 by construction.
  EXPECT_LE(es.busy_seconds(0, sim::duration::seconds(10)), 10.0);
}

TEST(EdgeStats, EarlyReleaseTruncatesTheOpenWindow) {
  EdgeStats es(1, 1);
  es.on_lease(0, 42, sim::duration::seconds(1), sim::duration::seconds(9));
  es.on_lease_release(0, 42, sim::duration::seconds(4));
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(9)), 3.0);
  // Releasing an unknown ticket or with unknown time is a no-op.
  es.on_lease_release(0, 7, sim::duration::seconds(5));
  es.on_lease_release(0, 42, -1);
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(10)), 3.0);
}

TEST(EdgeStats, ContentionAndDeliveryCounters) {
  EdgeStats es(3, 3);
  const std::size_t footprint[] = {0, 2};
  es.on_blocked(footprint);
  es.on_blocked_request();
  const std::size_t path[] = {0, 1};
  es.on_admission_wait(path, 0.5);
  es.on_attempt(1, 4);
  es.on_swap(1);
  es.on_delivered_edge(0, 0.8);
  es.on_delivered_edge(1, 0.8);
  es.on_delivered_pair(0, 2);

  EXPECT_EQ(es.edge(0).blocked, 1u);
  EXPECT_EQ(es.edge(1).blocked, 0u);
  EXPECT_EQ(es.edge(2).blocked, 1u);
  EXPECT_EQ(es.blocked_requests(), 1u);
  EXPECT_EQ(es.edge(0).admission_waits, 1u);
  EXPECT_DOUBLE_EQ(es.edge(1).admission_wait_s, 0.5);
  EXPECT_EQ(es.admission_waits(), 1u);
  EXPECT_DOUBLE_EQ(es.admission_wait_seconds(), 0.5);
  EXPECT_EQ(es.edge(1).attempts, 4u);
  EXPECT_EQ(es.attempt_pairs(), 4u);
  EXPECT_EQ(es.node(1).swaps, 1u);
  EXPECT_EQ(es.swaps(), 1u);
  EXPECT_EQ(es.edge(0).deliveries, 1u);
  EXPECT_DOUBLE_EQ(es.edge(0).fidelity.mean(), 0.8);
  EXPECT_EQ(es.deliveries(), 1u);
  EXPECT_EQ(es.node(0).terminals, 1u);
  EXPECT_EQ(es.node(2).terminals, 1u);
}

TEST(EdgeStats, MergeSumsCountersCoverageAndSketch) {
  EdgeStats a(2, 2), b(2, 2);
  a.on_lease(0, 1, 0, sim::duration::seconds(2));
  b.on_lease(0, 2, sim::duration::seconds(5), sim::duration::seconds(6));
  a.on_attempt(1, 3);
  b.on_attempt(1, 2);
  a.on_delivered_edge(0, 0.9);
  b.on_delivered_edge(0, 0.7);
  b.on_swap(1);
  // Fold both shards at their end times first (the documented merge
  // precondition), then merge.
  (void)a.busy_seconds(0, sim::duration::seconds(2));
  (void)b.busy_seconds(0, sim::duration::seconds(6));
  a.merge(b);
  EXPECT_EQ(a.edge(0).leases, 2u);
  EXPECT_EQ(a.lease_count(), 2u);
  EXPECT_EQ(a.edge(1).attempts, 5u);
  EXPECT_EQ(a.attempt_pairs(), 5u);
  EXPECT_EQ(a.edge(0).deliveries, 2u);
  EXPECT_DOUBLE_EQ(a.edge(0).fidelity.mean(), 0.8);
  EXPECT_EQ(a.node(1).swaps, 1u);
  // Folded busy seconds add: 2 s + 1 s of disjoint sim-time coverage.
  EXPECT_DOUBLE_EQ(a.busy_seconds(0, sim::duration::seconds(6)), 3.0);
  EXPECT_TRUE(a.hot_edges().exact());
  EXPECT_EQ(a.hot_edges().total_weight(), 7u);  // 2 leases + 5 pairs
}

// ---------------------------------------------------------------------------
// NetState visits only touched and open-lease edges: its records equal a
// full scan over every edge.

TEST(NetState, ASecondSamplerOnOneEdgeStatsThrows) {
  // A second NetState would drain the first one's touched edges and
  // silently zero its records.
  sim::Simulator sim;
  const EdgeStats stats(3, 3);
  {
    const NetState first(sim, stats);
    EXPECT_THROW((NetState{sim, stats}), std::logic_error);
  }
  // The first one's destructor frees the feed.
  EXPECT_NO_THROW((NetState{sim, stats}));
}

/// Drives one EdgeStats under a NetState and an identical twin, and
/// checks each record's util_mean, util_max and hot list against a
/// recomputation from busy_seconds() and the counters of every edge.
class FullScanReference {
 public:
  static constexpr std::size_t kEdges = 6;

  FullScanReference()
      : sampled_(kEdges, kEdges), twin_(kEdges, kEdges),
        prev_(kEdges) {}

  /// Apply one hook sequence to both EdgeStats.
  template <typename Hooks>
  void hooks(Hooks&& apply) {
    apply(sampled_);
    apply(twin_);
  }

  void start_sampling() {
    NetStateConfig nsc;
    nsc.interval = sim::duration::seconds(1);
    netstate_ = std::make_unique<NetState>(sim_, sampled_, nsc);
    record_baseline(sim_.now());
  }

  void advance_to(double t_s) { sim_.run_until(sim::duration::seconds(t_s)); }

  /// Advance to `t_s` seconds, poll, and check any new record.
  void poll_at(double t_s) {
    advance_to(t_s);
    netstate_->poll();
    check_new_records();
  }

  void finish() {
    netstate_->finish();
    check_new_records();
  }

  std::uint64_t checked() const { return checked_; }

 private:
  struct Snap {
    double busy_s = 0.0;
    std::uint64_t leases = 0, blocked = 0, attempts = 0, deliveries = 0;
  };

  Snap twin_snap(std::size_t e, sim::SimTime t) const {
    const EdgeStats::EdgeCounters& c = twin_.edge(e);
    return {twin_.busy_seconds(e, t), c.leases, c.blocked, c.attempts,
            c.deliveries};
  }

  void record_baseline(sim::SimTime t) {
    for (std::size_t e = 0; e < kEdges; ++e) prev_[e] = twin_snap(e, t);
    last_t_ = t;
  }

  /// The util_mean..end of an interval record, as a full scan over every
  /// edge writes it.
  std::string expected_tail(sim::SimTime t) {
    const double dt_s = sim::to_seconds(t - last_t_);
    struct Hot {
      std::size_t edge;
      double util;
      Snap delta;
    };
    std::vector<Hot> hot;
    double util_sum = 0.0, util_max = 0.0;
    for (std::size_t e = 0; e < kEdges; ++e) {
      const Snap cur = twin_snap(e, t);
      const Snap d{cur.busy_s - prev_[e].busy_s,
                   cur.leases - prev_[e].leases,
                   cur.blocked - prev_[e].blocked,
                   cur.attempts - prev_[e].attempts,
                   cur.deliveries - prev_[e].deliveries};
      const double util = std::min(1.0, d.busy_s / dt_s);
      util_sum += util;
      util_max = std::max(util_max, util);
      if (util > 0.0 || d.leases + d.blocked + d.attempts + d.deliveries > 0) {
        hot.push_back({e, util, d});
      }
      prev_[e] = cur;
    }
    std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
      if (a.util != b.util) return a.util > b.util;
      return a.edge < b.edge;
    });
    if (hot.size() > NetState::kTopK) hot.resize(NetState::kTopK);
    last_t_ = t;

    using json::append_field;
    std::string out;
    append_field(out, "util_mean", util_sum / static_cast<double>(kEdges));
    out += ',';
    append_field(out, "util_max", util_max);
    out += ",\"hot\":[";
    for (std::size_t i = 0; i < hot.size(); ++i) {
      if (i > 0) out += ',';
      out += '{';
      append_field(out, "edge", static_cast<std::uint64_t>(hot[i].edge));
      out += ',';
      append_field(out, "util", hot[i].util);
      out += ',';
      append_field(out, "leases", hot[i].delta.leases);
      out += ',';
      append_field(out, "blocked", hot[i].delta.blocked);
      out += ',';
      append_field(out, "attempts", hot[i].delta.attempts);
      out += ',';
      append_field(out, "deliveries", hot[i].delta.deliveries);
      out += '}';
    }
    out += "]}";
    return out;
  }

  void check_new_records() {
    const std::string& jsonl = netstate_->jsonl();
    while (consumed_ < jsonl.size()) {
      const std::size_t end = jsonl.find('\n', consumed_);
      const std::string line = jsonl.substr(consumed_, end - consumed_);
      consumed_ = end + 1;
      if (line.find("\"final\":true") != std::string::npos) continue;
      const std::size_t at = line.find("\"t\":");
      ASSERT_NE(at, std::string::npos) << line;
      const auto t =
          static_cast<sim::SimTime>(std::stoll(line.substr(at + 4)));
      const std::string tail = expected_tail(t);
      ASSERT_GE(line.size(), tail.size()) << line;
      EXPECT_EQ(line.substr(line.size() - tail.size()), tail)
          << "record at t=" << t;
      ++checked_;
    }
  }

  sim::Simulator sim_;
  EdgeStats sampled_;
  EdgeStats twin_;
  std::unique_ptr<NetState> netstate_;
  std::vector<Snap> prev_;
  sim::SimTime last_t_ = 0;
  std::size_t consumed_ = 0;
  std::uint64_t checked_ = 0;
};

TEST(NetState, TouchedEdgeRecordsEqualAFullScan) {
  using sim::duration::milliseconds;
  FullScanReference w;
  // Leases placed before the sampler exists, as bench_admission's
  // mid-run sessions see them: edge 0 holds one lease over three
  // intervals with no hook call after placement; edge 1 books a window
  // that starts after the next boundary; edge 2's lease is released
  // early; edges 3 and 4 see a blocked arrival.
  w.hooks([](EdgeStats& s) {
    s.on_lease(0, 1, milliseconds(200), milliseconds(3700));
    s.on_lease(1, 2, milliseconds(2600), milliseconds(4000));
    s.on_lease(2, 3, milliseconds(200), milliseconds(9000));
    const std::size_t footprint[] = {3, 4};
    s.on_blocked(footprint);
  });
  w.advance_to(0.5);
  w.start_sampling();
  w.poll_at(0.7);
  w.hooks([](EdgeStats& s) {
    s.on_attempt(4, 3);
    s.on_delivered_edge(5, 0.9);
  });
  w.poll_at(1.3);
  w.hooks([](EdgeStats& s) { s.on_lease_release(2, 3, milliseconds(1300)); });
  w.poll_at(1.4);
  w.hooks([](EdgeStats& s) {
    s.on_lease(3, 4, milliseconds(1400), milliseconds(1450));
  });
  w.poll_at(1.6);  // record (0.5, 1.5]
  w.poll_at(2.6);  // record (1.5, 2.5]: only edge 0's open window moves
  w.poll_at(3.6);  // the booked window on edge 1 is running
  w.hooks([](EdgeStats& s) {
    // A booked window placed now that starts two boundaries later.
    s.on_lease(5, 5, milliseconds(5600), milliseconds(6100));
    const std::size_t path[] = {4, 5};
    s.on_admission_wait(path, 0.25);
  });
  w.poll_at(4.6);
  w.poll_at(5.55);  // (4.5, 5.5]: no hook, only the booked window open
  w.poll_at(7.9);   // one coalesced record over two intervals
  w.hooks([](EdgeStats& s) {
    s.on_lease(0, 6, milliseconds(7900), milliseconds(8000));
    s.on_lease_release(0, 6, milliseconds(7950));
  });
  w.poll_at(8.6);
  w.poll_at(9.6);  // (8.5, 9.5]: no activity at all
  w.finish();      // the trailing partial interval
  EXPECT_EQ(w.checked(), 9u);
}

// ---------------------------------------------------------------------------
// Sampled end-to-end run: the same 2x3 dead-edge world as
// test_monitor.cpp's MonitoredWorld, with EdgeStats hooks and an
// obs::NetState polled from the run loop.

struct SampledWorld {
  routing::Graph grid;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;
  std::unique_ptr<EdgeStats> edge_stats;
  std::unique_ptr<NetState> netstate;

  explicit SampledWorld(qstate::BackendKind backend, std::uint64_t seed,
                        bool sampled)
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
    if (sampled) {
      edge_stats = std::make_unique<EdgeStats>(grid.num_edges(),
                                               grid.num_nodes());
      router->set_edge_stats(edge_stats.get());
      NetStateConfig nsc;
      nsc.run = "test";
      netstate = std::make_unique<NetState>(net->simulator(), *edge_stats,
                                            std::move(nsc));
      netstate->attach_collector(&collector);
      netstate->attach_graph(&grid);
    }
  }

  /// Run one 0 -> 2 request to settlement, polling `session` when
  /// given; returns the byte-exact trajectory fingerprint (deliveries +
  /// end time + event count).
  std::string run_request(Session* session = nullptr) {
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
      if (netstate != nullptr) netstate->poll();
      if (session != nullptr) session->poll();
    }
    if (netstate != nullptr) netstate->finish();
    if (session != nullptr) session->finish();
    EXPECT_EQ(stats.completed, 1u);
    char tail[64];
    std::snprintf(tail, sizeof(tail), "end %lld %llu\n",
                  static_cast<long long>(net->simulator().now()),
                  static_cast<unsigned long long>(
                      net->simulator().events_processed()));
    deliveries += tail;
    return deliveries;
  }
};

TEST(NetStateRun, ByteIdenticalJsonlPerSeedOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    SampledWorld first(backend, 11, /*sampled=*/true);
    SampledWorld second(backend, 11, /*sampled=*/true);
    const std::string d1 = first.run_request();
    const std::string d2 = second.run_request();
    EXPECT_EQ(d1, d2);
    ASSERT_GT(first.netstate->intervals(), 0u);
    EXPECT_EQ(first.netstate->jsonl(), second.netstate->jsonl());
  }
}

TEST(NetStateRun, AttachingTheHooksDoesNotPerturbTheTrajectory) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    SampledWorld bare(backend, 11, /*sampled=*/false);
    SampledWorld sampled(backend, 11, /*sampled=*/true);
    const std::string d_bare = bare.run_request();
    const std::string d_sampled = sampled.run_request();
    // Identical deliveries, end time, and event count: the accounting
    // hooks are pure observers (the fingerprint includes
    // events_processed).
    EXPECT_EQ(d_bare, d_sampled);
    EXPECT_EQ(bare.collector.route_length().count(),
              sampled.collector.route_length().count());
    EXPECT_DOUBLE_EQ(bare.collector.request_latency_hist().sum(),
                     sampled.collector.request_latency_hist().sum());
  }
}

TEST(NetStateRun, StreamHoldsTheCheckerInvariants) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  const std::string jsonl = w.netstate->jsonl();
  // One line per interval record plus the final summary; every record
  // carries the run label.
  EXPECT_EQ(count_of(jsonl, "\n"), w.netstate->intervals() + 1);
  EXPECT_EQ(count_of(jsonl, "\"i\":"), w.netstate->intervals());
  EXPECT_EQ(count_of(jsonl, "\"final\":true"), 1u);
  EXPECT_EQ(count_of(jsonl, "\"run\":\"test\""),
            w.netstate->intervals() + 1);
  // The final record carries the per-edge table, totals, and sketch.
  EXPECT_NE(jsonl.find("\"edges\":["), std::string::npos);
  EXPECT_NE(jsonl.find("\"totals\":{"), std::string::npos);
  EXPECT_NE(jsonl.find("\"sketch\":{"), std::string::npos);
  EXPECT_NE(jsonl.find("\"collector\":{"), std::string::npos);
  // Utilization is a coverage fraction: bounded by 1.
  EXPECT_GT(w.netstate->max_utilization(), 0.0);
  EXPECT_LE(w.netstate->max_utilization(), 1.0);
  // 7 edges fit the default sketch capacity: the ranking is exact.
  EXPECT_TRUE(w.edge_stats->hot_edges().exact());
  // finish() is idempotent and poll() after it is a no-op.
  w.netstate->finish();
  w.netstate->poll();
  EXPECT_EQ(w.netstate->jsonl(), jsonl);
}

TEST(NetStateRun, TotalsReconcileWithTheCollector) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  // Request-level counters agree between the per-edge substrate and
  // the Collector (stream_check.py netstate verifies the same from JSONL).
  EXPECT_EQ(w.edge_stats->deliveries(),
            w.collector.total_pairs_delivered());
  EXPECT_EQ(w.edge_stats->blocked_requests(),
            w.collector.requests_blocked());
  EXPECT_EQ(w.edge_stats->admission_waits(),
            w.collector.admission_wait().count());
  // Per-hop deliveries cover every delivered pair at least once.
  std::uint64_t hop_deliveries = 0;
  for (std::size_t e = 0; e < w.edge_stats->num_edges(); ++e) {
    hop_deliveries += w.edge_stats->edge(e).deliveries;
  }
  EXPECT_GE(hop_deliveries, w.edge_stats->deliveries());
}

TEST(NetStateRun, PhaseDecompositionCoversTheDeliveredPairs) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  const auto& c = w.collector;
  // Every delivered pair records its generation / swap-cascade /
  // delivery phases; the completed request records its admission wait.
  EXPECT_EQ(c.phase_hist(metrics::Phase::kGeneration).count(),
            c.total_pairs_delivered());
  EXPECT_EQ(c.phase_hist(metrics::Phase::kSwapCascade).count(),
            c.total_pairs_delivered());
  EXPECT_EQ(c.phase_hist(metrics::Phase::kDelivery).count(),
            c.total_pairs_delivered());
  EXPECT_GE(c.phase_hist(metrics::Phase::kAdmissionWait).count(), 1u);
  EXPECT_GT(c.phase_hist(metrics::Phase::kGeneration).sum(), 0.0);
  // The slowest-request keeper saw the completion, with its phase
  // vector summing to at most the total.
  ASSERT_FALSE(c.slowest_requests().empty());
  const auto& slow = c.slowest_requests().front();
  EXPECT_GT(slow.total_s, 0.0);
  double phase_sum = 0.0;
  for (const double s : slow.phase_s) phase_sum += s;
  EXPECT_LE(phase_sum, slow.total_s + 1e-9);
}

TEST(NetStateRun, RunReportRendersTheRun) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  const std::string md = render_run_report(
      w.net->simulator(), *w.edge_stats, w.collector, &w.grid, "test run");
  EXPECT_NE(md.find("### test run"), std::string::npos);
  EXPECT_NE(md.find("Hot edges"), std::string::npos);
  EXPECT_NE(md.find("Latency phases"), std::string::npos);
  EXPECT_NE(md.find("Slowest requests"), std::string::npos);
  EXPECT_NE(md.find("generation"), std::string::npos);
  // Deterministic rendering: same state, same bytes.
  EXPECT_EQ(md, render_run_report(w.net->simulator(), *w.edge_stats,
                                  w.collector, &w.grid, "test run"));
}

TEST(NetStateRun, SessionMatchesTheHandWiredObservers) {
  SampledWorld wired(qstate::BackendKind::kBellDiagonal, 11,
                     /*sampled=*/true);
  SampledWorld bare(qstate::BackendKind::kBellDiagonal, 11,
                    /*sampled=*/false);
  Session session(bare.collector, {.run = "test"}, /*trace=*/true);
  session.attach(*bare.router);
  session.watch({.run = "test"});
  // A full session (Monitor and Tracer too) leaves the trajectory
  // untouched, and its NetState stream and report equal the ones the
  // hand-wired observers produce.
  EXPECT_EQ(wired.run_request(), bare.run_request(&session));
  EXPECT_EQ(session.netstate_jsonl(), wired.netstate->jsonl());
  EXPECT_EQ(session.report("t"),
            render_run_report(wired.net->simulator(), *wired.edge_stats,
                              wired.collector, &wired.grid, "t"));
  EXPECT_EQ(session.max_utilization(), wired.netstate->max_utilization());
  ASSERT_TRUE(session.monitored());
  EXPECT_EQ(count_of(session.monitor_jsonl(), "\"final\":true"), 1u);
  ASSERT_NE(session.tracer(), nullptr);
  EXPECT_GT(session.tracer()->num_events(), 0u);
  // The full-detail plane's counters ride in the snapshot.
  EXPECT_NE(session.snapshot_json().find("\"swap\""), std::string::npos);
  EXPECT_NE(session.snapshot_json().find("\"backend\""), std::string::npos);
}

}  // namespace
}  // namespace qlink::obs
