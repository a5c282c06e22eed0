#include "metrics/collector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace qlink::metrics {

using core::OkMessage;
using core::Priority;
using quantum::gates::Basis;

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kAdmissionWait: return "admission_wait";
    case Phase::kDeferral: return "deferral";
    case Phase::kGeneration: return "generation";
    case Phase::kSwapCascade: return "swap_cascade";
    case Phase::kDelivery: return "delivery";
  }
  return "unknown";
}

void Collector::record_create(std::uint32_t origin_node,
                              std::uint32_t create_id, Priority kind,
                              std::uint16_t num_pairs, sim::SimTime t) {
  open_insert({origin_node, create_id},
              OpenRequest{kind, num_pairs, t, origin_node});
  kinds_[static_cast<std::size_t>(kind)].requests_submitted += 1;
}

void Collector::open_insert(const OpenKey& key, const OpenRequest& req) {
  const auto it = open_.find(key);
  if (it != open_.end()) {
    open_age_.erase({it->second.created, key.first, key.second});
    it->second = req;
  } else {
    open_.emplace(key, req);
  }
  open_age_.insert({req.created, key.first, key.second});
  enforce_open_capacity();
}

void Collector::open_erase(std::map<OpenKey, OpenRequest>::iterator it) {
  open_age_.erase({it->second.created, it->first.first, it->first.second});
  open_.erase(it);
}

void Collector::enforce_open_capacity() {
  if (open_capacity_ == 0) return;
  while (open_.size() > open_capacity_) {
    const auto oldest = open_age_.begin();
    open_.erase({std::get<1>(*oldest), std::get<2>(*oldest)});
    open_age_.erase(oldest);
    ++open_evicted_;
  }
}

void Collector::record_ok(const OkMessage& ok, Priority kind, sim::SimTime t,
                          std::optional<double> fidelity) {
  KindMetrics& km = kinds_[static_cast<std::size_t>(kind)];
  KindMetrics& om = origin_metrics_[ok.origin_node];
  km.pairs_delivered += 1;
  om.pairs_delivered += 1;
  km.goodness.add(ok.goodness);
  if (fidelity) {
    km.fidelity.add(*fidelity);
    om.fidelity.add(*fidelity);
    fidelity_hist_.record(*fidelity);
  }

  const auto it = open_.find({ok.origin_node, ok.create_id});
  if (it == open_.end()) return;
  const OpenRequest& req = it->second;
  const double pair_latency = sim::to_seconds(t - req.created);
  km.pair_latency_s.add(pair_latency);
  om.pair_latency_s.add(pair_latency);
  pair_latency_hist_.record(pair_latency);

  if (ok.pair_index + 1 == ok.total_pairs) {
    const double request_latency = sim::to_seconds(t - req.created);
    km.request_latency_s.add(request_latency);
    om.request_latency_s.add(request_latency);
    request_latency_hist_.record(request_latency);
    request_latency_res_.add(request_latency);
    const double scaled =
        request_latency / static_cast<double>(std::max<std::uint16_t>(
                              req.num_pairs, 1));
    km.scaled_latency_s.add(scaled);
    om.scaled_latency_s.add(scaled);
    km.requests_completed += 1;
    om.requests_completed += 1;
    note_slow_request(ok.create_id, req, request_latency);
    open_erase(it);
  }
}

void Collector::record_admission_wait(double seconds, std::uint32_t origin,
                                      std::uint32_t id) {
  record_admission_wait(seconds);
  const auto it = open_.find({origin, id});
  if (it != open_.end()) it->second.admission_wait_s += seconds;
}

void Collector::attribute_deferral(std::uint32_t origin, std::uint32_t id,
                                   double booked_wait_s) {
  const auto it = open_.find({origin, id});
  if (it != open_.end()) it->second.deferral_s += booked_wait_s;
}

void Collector::record_pair_phases(std::uint32_t origin, std::uint32_t id,
                                   double generation_s, double swap_s,
                                   double delivery_s) {
  phase_hists_[static_cast<std::size_t>(Phase::kGeneration)].record(
      generation_s);
  phase_hists_[static_cast<std::size_t>(Phase::kSwapCascade)].record(swap_s);
  phase_hists_[static_cast<std::size_t>(Phase::kDelivery)].record(delivery_s);
  const auto it = open_.find({origin, id});
  if (it != open_.end()) {
    it->second.generation_s = generation_s;
    it->second.swap_s = swap_s;
    it->second.delivery_s = delivery_s;
  }
}

void Collector::note_slow_request(std::uint32_t id, const OpenRequest& req,
                                  double total_s) {
  SlowRequest slow;
  slow.total_s = total_s;
  slow.phase_s[static_cast<std::size_t>(Phase::kAdmissionWait)] =
      req.admission_wait_s;
  slow.phase_s[static_cast<std::size_t>(Phase::kDeferral)] = req.deferral_s;
  slow.phase_s[static_cast<std::size_t>(Phase::kGeneration)] =
      req.generation_s;
  slow.phase_s[static_cast<std::size_t>(Phase::kSwapCascade)] = req.swap_s;
  slow.phase_s[static_cast<std::size_t>(Phase::kDelivery)] = req.delivery_s;
  slow.origin = req.origin;
  slow.id = id;
  slowest_.push_back(slow);
  sort_and_trim_slowest(slowest_);
}

void Collector::sort_and_trim_slowest(std::vector<SlowRequest>& v) {
  std::sort(v.begin(), v.end(),
            [](const SlowRequest& a, const SlowRequest& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              if (a.origin != b.origin) return a.origin < b.origin;
              return a.id < b.id;
            });
  if (v.size() > kSlowestCapacity) v.resize(kSlowestCapacity);
}

void Collector::record_resubmit(std::uint32_t origin, std::uint32_t old_id,
                                std::uint32_t new_id, Priority kind,
                                std::uint16_t num_pairs,
                                sim::SimTime submitted_at) {
  ++reroutes_;
  const auto it = open_.find({origin, old_id});
  if (it != open_.end()) {
    OpenRequest req = it->second;
    // Re-scale to the resubmission's remaining pairs — the recreate
    // branch below can only know those, so both error classes
    // (kExpired keeps the entry, others erase it via record_err) must
    // yield the same scaled_latency_s divisor.
    req.num_pairs = num_pairs;
    open_erase(it);
    open_insert({origin, new_id}, req);
    return;
  }
  // The hop failure's ERR already erased the entry (record_err); put it
  // back at the *original* submission time so queue + reroute time
  // still counts toward latency.
  open_insert({origin, new_id},
              OpenRequest{kind, num_pairs, submitted_at, origin});
}

void Collector::record_err(const core::ErrMessage& err) {
  error_counts_[err.error] += 1;
  if (err.error != core::EgpError::kExpired) {
    const auto it = open_.find({err.origin_node, err.create_id});
    if (it != open_.end()) open_erase(it);
  }
}

void Collector::record_correlation(Basis basis, int outcome_a, int outcome_b,
                                   int heralded_state) {
  const auto target = heralded_state == 1
                          ? quantum::bell::BellState::kPsiPlus
                          : quantum::bell::BellState::kPsiMinus;
  const bool ideal_equal = quantum::bell::ideal_outcomes_equal(target, basis);
  const bool error = (outcome_a == outcome_b) != ideal_equal;
  auto& [errors, total] = qber_counts_[static_cast<std::size_t>(basis)];
  if (error) ++errors;
  ++total;
}

const Collector::KindMetrics& Collector::by_origin(std::uint32_t node) const {
  const auto it = origin_metrics_.find(node);
  if (it == origin_metrics_.end()) {
    throw std::out_of_range("Collector::by_origin: node " +
                            std::to_string(node) +
                            " has no recorded deliveries");
  }
  return it->second;
}

double Collector::total_throughput() const {
  const double dt = elapsed_seconds();
  if (dt <= 0.0) return 0.0;
  return static_cast<double>(total_pairs_delivered()) / dt;
}

std::uint64_t Collector::total_pairs_delivered() const {
  std::uint64_t pairs = 0;
  for (const auto& km : kinds_) pairs += km.pairs_delivered;
  return pairs;
}

std::optional<sim::SimTime> Collector::oldest_open_created() const {
  if (open_age_.empty()) return std::nullopt;
  return std::get<0>(*open_age_.begin());
}

namespace {

void merge_kind(Collector::KindMetrics& into,
                const Collector::KindMetrics& from) {
  into.request_latency_s.merge(from.request_latency_s);
  into.pair_latency_s.merge(from.pair_latency_s);
  into.scaled_latency_s.merge(from.scaled_latency_s);
  into.fidelity.merge(from.fidelity);
  into.goodness.merge(from.goodness);
  into.pairs_delivered += from.pairs_delivered;
  into.requests_submitted += from.requests_submitted;
  into.requests_completed += from.requests_completed;
}

}  // namespace

void Collector::merge(const Collector& other) {
  // Widen the measurement window; an untouched side (begin() never
  // called, both stamps 0) contributes nothing.
  if (other.start_time_ != 0 || other.end_time_ != 0) {
    if (start_time_ == 0 && end_time_ == 0) {
      start_time_ = other.start_time_;
      end_time_ = other.end_time_;
    } else {
      start_time_ = std::min(start_time_, other.start_time_);
      end_time_ = std::max(end_time_, other.end_time_);
    }
  }
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    merge_kind(kinds_[k], other.kinds_[k]);
  }
  for (const auto& [node, km] : other.origin_metrics_) {
    merge_kind(origin_metrics_[node], km);
  }
  // Open-request union: across real shards (origin, create_id) keys
  // are disjoint; when both shards hold the same open key, the entry
  // with the earlier `created` wins (ISSUE 8) — it anchors latency at
  // the first submission either shard saw, and the rule is symmetric
  // so merge order cannot change the result.
  for (const auto& [key, req] : other.open_) {
    const auto it = open_.find(key);
    if (it == open_.end()) {
      open_insert(key, req);
    } else if (req.created < it->second.created) {
      open_age_.erase({it->second.created, key.first, key.second});
      it->second = req;
      open_age_.insert({req.created, key.first, key.second});
    }
  }
  open_evicted_ += other.open_evicted_;
  for (const auto& [err, n] : other.error_counts_) error_counts_[err] += n;
  for (std::size_t b = 0; b < qber_counts_.size(); ++b) {
    qber_counts_[b].first += other.qber_counts_[b].first;
    qber_counts_[b].second += other.qber_counts_[b].second;
  }
  request_latency_hist_ += other.request_latency_hist_;
  pair_latency_hist_ += other.pair_latency_hist_;
  admission_wait_hist_ += other.admission_wait_hist_;
  fidelity_hist_ += other.fidelity_hist_;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    phase_hists_[p] += other.phase_hists_[p];
  }
  slowest_.insert(slowest_.end(), other.slowest_.begin(),
                  other.slowest_.end());
  sort_and_trim_slowest(slowest_);
  request_latency_res_.merge(other.request_latency_res_);
  queue_length_.merge(other.queue_length_);
  route_length_.merge(other.route_length_);
  admission_wait_s_.merge(other.admission_wait_s_);
  requests_blocked_ += other.requests_blocked_;
  reroutes_ += other.reroutes_;
  requests_abandoned_ += other.requests_abandoned_;
  deferrals_ += other.deferrals_;
  admission_steals_ += other.admission_steals_;
  hol_holds_ += other.hol_holds_;
}

std::optional<double> Collector::qber(Basis basis) const {
  const auto& [errors, total] = qber_counts_[static_cast<std::size_t>(basis)];
  if (total == 0) return std::nullopt;
  return static_cast<double>(errors) / static_cast<double>(total);
}

std::optional<double> Collector::fidelity_from_qber() const {
  const auto qx = qber(Basis::kX);
  const auto qy = qber(Basis::kY);
  const auto qz = qber(Basis::kZ);
  if (!qx || !qy || !qz) return std::nullopt;
  return quantum::bell::fidelity_from_qbers(*qx, *qy, *qz);
}

}  // namespace qlink::metrics
