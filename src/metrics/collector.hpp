#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/requests.hpp"
#include "metrics/histogram.hpp"
#include "metrics/reservoir.hpp"
#include "metrics/stats.hpp"
#include "quantum/bell.hpp"
#include "sim/time.hpp"

/// \file collector.hpp
/// Evaluation metrics of Section 4.2 / 6.2: throughput, request / pair /
/// scaled latency, fidelity, QBER, queue lengths, error counts, and
/// fairness splits by requesting node.

namespace qlink::metrics {

/// Latency phase taxonomy (ISSUE 8): where a request's life goes.
/// kAdmissionWait covers submit -> first admission (kDeferral is the
/// booked-window slice of it, reported separately); per delivered pair,
/// kGeneration covers admission -> all hops matched (cascade launch),
/// kSwapCascade launch -> the swap cascade's execution, and kDelivery
/// the cascade -> delivery classical-correction flight.
enum class Phase : std::size_t {
  kAdmissionWait = 0,
  kDeferral,
  kGeneration,
  kSwapCascade,
  kDelivery,
};
inline constexpr std::size_t kNumPhases = 5;
const char* phase_name(Phase p);

class Collector {
 public:
  struct KindMetrics {
    RunningStat request_latency_s;
    RunningStat pair_latency_s;
    RunningStat scaled_latency_s;
    RunningStat fidelity;
    RunningStat goodness;
    std::uint64_t pairs_delivered = 0;
    std::uint64_t requests_submitted = 0;
    std::uint64_t requests_completed = 0;
  };

  void begin(sim::SimTime now) { start_time_ = now; }
  void end(sim::SimTime now) { end_time_ = now; }
  double elapsed_seconds() const {
    return sim::to_seconds(end_time_ - start_time_);
  }

  void record_create(std::uint32_t origin_node, std::uint32_t create_id,
                     core::Priority kind, std::uint16_t num_pairs,
                     sim::SimTime t);

  /// An OK arriving at the *origin* node (latency is defined there).
  void record_ok(const core::OkMessage& ok, core::Priority kind,
                 sim::SimTime t, std::optional<double> fidelity);

  void record_err(const core::ErrMessage& err);

  /// One MD (or test-round) correlation sample: outcomes at A and B in a
  /// basis, with the heralded Bell state defining the ideal correlation.
  void record_correlation(quantum::gates::Basis basis, int outcome_a,
                          int outcome_b, int heralded_state);

  void sample_queue_length(std::size_t len) {
    queue_length_.add(static_cast<double>(len));
  }

  /// Routing-layer accounting: hop count of an admitted route, and
  /// requests that could not be admitted immediately (queued behind
  /// reservations; see routing::Router).
  void record_route(std::size_t hops) {
    route_length_.add(static_cast<double>(hops));
  }
  void record_blocked() { ++requests_blocked_; }

  /// A failed request re-routed onto a sibling path (adaptive
  /// re-routing, routing::Router): carries the open-request latency
  /// entry from the old network-layer request id to the new one so
  /// delivery latency stays measured from the original submission —
  /// recreated at `submitted_at` when an error already closed it —
  /// without double-counting requests_submitted.
  void record_resubmit(std::uint32_t origin, std::uint32_t old_id,
                       std::uint32_t new_id, core::Priority kind,
                       std::uint16_t num_pairs, sim::SimTime submitted_at);
  /// A re-routable request abandoned after its reroute budget (or the
  /// sibling-candidate space) was exhausted.
  void record_abandon() { ++requests_abandoned_; }
  std::uint64_t reroutes() const { return reroutes_; }
  std::uint64_t abandons() const { return requests_abandoned_; }

  /// Scheduler-grade admission accounting (routing::Router, ISSUE 5):
  /// submit -> first-admission wait per request (0 for instant admits;
  /// resubmissions excluded — their latency stays anchored at the
  /// original submission).
  void record_admission_wait(double seconds) {
    admission_wait_s_.add(seconds);
    admission_wait_hist_.record(seconds);
    phase_hists_[static_cast<std::size_t>(Phase::kAdmissionWait)].record(
        seconds);
  }
  /// As above, also attributing the wait to the open request
  /// (origin, id) so its phase vector carries it at completion.
  void record_admission_wait(double seconds, std::uint32_t origin,
                             std::uint32_t id);
  /// A deferred-admission booking and its booked wait (the gap between
  /// the deferral and the booked window start).
  void record_deferral(double booked_wait_s) {
    ++deferrals_;
    phase_hists_[static_cast<std::size_t>(Phase::kDeferral)].record(
        booked_wait_s);
  }
  /// Attach an earlier-booked deferral wait to the open request's phase
  /// vector (the Router learns the request id only when the booked
  /// window opens, after record_deferral already counted the booking).
  void attribute_deferral(std::uint32_t origin, std::uint32_t id,
                          double booked_wait_s);
  /// Head-of-line accounting: an admission that jumped an older blocked
  /// request on a shared edge (greedy drain) ...
  void record_steal() { ++admission_steals_; }
  /// ... and a drain retry withheld to preserve per-edge FIFO (batch
  /// drain).
  void record_hol_hold() { ++hol_holds_; }
  const RunningStat& admission_wait() const { return admission_wait_s_; }
  std::uint64_t deferrals() const { return deferrals_; }
  std::uint64_t admission_steals() const { return admission_steals_; }
  std::uint64_t hol_holds() const { return hol_holds_; }

  const KindMetrics& kind(core::Priority p) const {
    return kinds_[static_cast<std::size_t>(p)];
  }
  KindMetrics& kind(core::Priority p) {
    return kinds_[static_cast<std::size_t>(p)];
  }

  double throughput(core::Priority p) const {
    const double dt = elapsed_seconds();
    return dt <= 0.0 ? 0.0
                     : static_cast<double>(kind(p).pairs_delivered) / dt;
  }
  double total_throughput() const;
  /// Pairs delivered across every kind (the monitor's delivery counter).
  std::uint64_t total_pairs_delivered() const;

  std::optional<double> qber(quantum::gates::Basis basis) const;
  /// Correlation samples recorded in `basis` (qber's denominator).
  std::uint64_t correlation_samples(quantum::gates::Basis basis) const {
    return qber_counts_[static_cast<std::size_t>(basis)].second;
  }
  /// Fidelity reconstructed from QBER (how the paper extracts MD
  /// fidelity, Section 6.2).
  std::optional<double> fidelity_from_qber() const;

  std::uint64_t errors(core::EgpError e) const {
    return error_counts_.count(e) ? error_counts_.at(e) : 0;
  }
  std::uint64_t total_expires() const { return errors(core::EgpError::kExpired); }
  const RunningStat& queue_length() const { return queue_length_; }
  const RunningStat& route_length() const { return route_length_; }
  std::uint64_t requests_blocked() const { return requests_blocked_; }

  /// Fairness: per-origin pair counts and mean latencies (Section 6.2).
  /// Throws std::out_of_range naming the node when it never delivered a
  /// pair; use find_origin / has_origin for an exception-free probe.
  const KindMetrics& by_origin(std::uint32_t node) const;
  /// Null when the node has no recorded deliveries.
  const KindMetrics* find_origin(std::uint32_t node) const {
    const auto it = origin_metrics_.find(node);
    return it == origin_metrics_.end() ? nullptr : &it->second;
  }
  bool has_origin(std::uint32_t node) const {
    return origin_metrics_.count(node) > 0;
  }

  // -- Streaming distributions (ISSUE 6) ---------------------------------
  // Log-scale fixed-bin histograms over the same samples the
  // RunningStats see: O(1) record, mergeable, percentile-capable.
  const Histogram& request_latency_hist() const {
    return request_latency_hist_;
  }
  const Histogram& pair_latency_hist() const { return pair_latency_hist_; }
  const Histogram& admission_wait_hist() const {
    return admission_wait_hist_;
  }
  const Histogram& fidelity_hist() const { return fidelity_hist_; }

  // -- Exact-sample quantiles (ISSUE 7) -----------------------------------
  // A deterministic seeded reservoir over the request-latency stream:
  // O(capacity) memory at million-request scale, exact sample values
  // where the Histogram has ~7% bin width. Its private RNG never touches
  // the simulation's, so recording cannot perturb a seeded trajectory.
  const Reservoir& request_latency_reservoir() const {
    return request_latency_res_;
  }

  // -- Latency phase decomposition (ISSUE 8) ------------------------------
  // "Why was p99 slow": per-phase Histograms over the same control
  // points the existing counters use, plus a bounded keeper of the
  // slowest completed requests with their phase vectors.
  struct SlowRequest {
    double total_s = 0.0;
    /// Seconds per Phase, indexed by static_cast<std::size_t>(Phase).
    /// kGeneration/kSwapCascade/kDelivery are the *last* delivered
    /// pair's values (the pair that completed the request).
    std::array<double, kNumPhases> phase_s{};
    std::uint32_t origin = 0;
    std::uint32_t id = 0;
  };
  static constexpr std::size_t kSlowestCapacity = 16;

  /// One delivered pair's generation / swap-cascade / delivery phase
  /// measurements (SwapService). Call before record_ok for the same
  /// pair so a completing request's phase vector is current.
  void record_pair_phases(std::uint32_t origin, std::uint32_t id,
                          double generation_s, double swap_s,
                          double delivery_s);
  const Histogram& phase_hist(Phase p) const {
    return phase_hists_[static_cast<std::size_t>(p)];
  }
  /// The slowest completed requests, total latency descending (ties:
  /// origin then id ascending — deterministic), at most
  /// kSlowestCapacity of them.
  const std::vector<SlowRequest>& slowest_requests() const {
    return slowest_;
  }

  // -- In-flight state (ISSUE 7) ------------------------------------------
  // The open_ map grows silently when a layer leaks a request (a CREATE
  // that never sees its last OK or a terminal ERR). Surface it so the
  // monitor's watchdog can report leak age instead of hiding it.
  std::size_t open_requests() const noexcept { return open_.size(); }
  /// Creation time of the oldest still-open request (nullopt when none).
  std::optional<sim::SimTime> oldest_open_created() const;

  /// Bound the open-request map (streaming runs, ISSUE 9): an abandoned
  /// entry that never settles would otherwise leak forever. When more
  /// than `cap` requests are simultaneously open, the oldest entries
  /// (smallest `created`, ties broken by key — deterministic) are
  /// evicted and counted in open_evicted(). An evicted request that
  /// later settles records no latency (its anchor is gone) but its
  /// pairs and completions still count. 0 = unbounded (the default).
  void set_open_capacity(std::size_t cap) {
    open_capacity_ = cap;
    enforce_open_capacity();
  }
  /// Open requests dropped by the capacity cap (summed by merge()).
  std::uint64_t open_evicted() const noexcept { return open_evicted_; }

  /// Shard merge (ISSUE 7): fold another collector's records in, as if
  /// both streams had been recorded here. Histograms and counters merge
  /// exactly and commutatively; RunningStats via parallel Welford (~1e-12
  /// relative reassociation error); the reservoir via Reservoir::merge
  /// (order-sensitive byte-wise when overflowing — see reservoir.hpp);
  /// open_ entries union — when the same (origin, create_id) key is
  /// open in both shards, the entry with the earlier `created` wins
  /// regardless of merge order (ISSUE 8: latency stays measured from
  /// the first submission a shard saw); start/end times widen to cover
  /// both windows.
  void merge(const Collector& other);

 private:
  struct OpenRequest {
    core::Priority kind;
    std::uint16_t num_pairs;
    sim::SimTime created;
    std::uint32_t origin;
    /// Phase attribution accumulated while open (seconds; the three
    /// per-pair phases hold the most recent delivered pair's values).
    double admission_wait_s = 0.0;
    double deferral_s = 0.0;
    double generation_s = 0.0;
    double swap_s = 0.0;
    double delivery_s = 0.0;
  };

  /// Fold a completing request into the slowest-request keeper.
  void note_slow_request(std::uint32_t id, const OpenRequest& req,
                         double total_s);
  static void sort_and_trim_slowest(std::vector<SlowRequest>& v);

  using OpenKey = std::pair<std::uint32_t, std::uint32_t>;
  /// All open_ mutations go through these so open_age_ stays in sync
  /// and the capacity cap holds after every insert.
  void open_insert(const OpenKey& key, const OpenRequest& req);
  void open_erase(std::map<OpenKey, OpenRequest>::iterator it);
  void enforce_open_capacity();

  sim::SimTime start_time_ = 0;
  sim::SimTime end_time_ = 0;
  std::array<KindMetrics, 3> kinds_{};
  std::map<std::uint32_t, KindMetrics> origin_metrics_;
  std::map<OpenKey, OpenRequest> open_;
  /// Age index over open_ — (created, origin, id) ascending, the
  /// eviction order. Maintained at every open_ mutation; makes both
  /// oldest_open_created() and oldest-eviction O(log n).
  std::set<std::tuple<sim::SimTime, std::uint32_t, std::uint32_t>> open_age_;
  std::size_t open_capacity_ = 0;   // 0 = unbounded
  std::uint64_t open_evicted_ = 0;
  std::map<core::EgpError, std::uint64_t> error_counts_;
  std::array<std::pair<std::uint64_t, std::uint64_t>, 3> qber_counts_{};
  Histogram request_latency_hist_;
  Histogram pair_latency_hist_;
  Histogram admission_wait_hist_;
  Histogram fidelity_hist_;
  std::array<Histogram, kNumPhases> phase_hists_{};
  /// Sorted (total_s desc, origin asc, id asc), <= kSlowestCapacity.
  std::vector<SlowRequest> slowest_;
  // Fixed seed: deterministic per construction.
  Reservoir request_latency_res_{1024, 0x716c4c61747265ULL};
  RunningStat queue_length_;
  RunningStat route_length_;
  RunningStat admission_wait_s_;
  std::uint64_t requests_blocked_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t requests_abandoned_ = 0;
  std::uint64_t deferrals_ = 0;
  std::uint64_t admission_steals_ = 0;
  std::uint64_t hol_holds_ = 0;
};

}  // namespace qlink::metrics
