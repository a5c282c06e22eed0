#pragma once

#include <cstdint>

#include "metrics/collector.hpp"
#include "netlayer/plane.hpp"

/// \file plane_recorder.hpp
/// The request-level Collector accounting every EntanglementPlane
/// performs, in one place: SwapService and FlowPlane both record
/// through a PlaneRecorder, so their metrics agree by construction
/// rather than by keeping two copies in step. All recording happens
/// under Priority::kNetworkLayer; a null collector records nothing.

namespace qlink::netlayer {

class PlaneRecorder {
 public:
  explicit PlaneRecorder(metrics::Collector* collector) noexcept
      : collector_(collector) {}

  /// Plane request `id` admitted at `now`. A fresh request opens its
  /// entry at admission (router queue wait is the separate
  /// admission-wait metric); a re-routing resubmission instead carries
  /// the original's entry over to `id`, anchored at `submitted`, without
  /// counting a new request.
  void admitted(const E2eRequest& request, std::uint32_t id,
                std::uint16_t pairs, sim::SimTime now,
                sim::SimTime submitted) const {
    if (collector_ == nullptr) return;
    if (request.resubmission_of != 0) {
      collector_->record_resubmit(request.src, request.resubmission_of, id,
                                  core::Priority::kNetworkLayer, pairs,
                                  submitted);
    } else {
      collector_->record_create(request.src, id,
                                core::Priority::kNetworkLayer, pairs, now);
    }
  }

  /// One delivered pair: its latency phases first, so a completing
  /// request's phase vector is current when the OK closes it.
  void delivered(const E2eOk& ok, sim::SimTime now, double generation_s,
                 double swap_s, double delivery_s) const {
    if (collector_ == nullptr) return;
    collector_->record_pair_phases(ok.src, ok.request_id, generation_s,
                                   swap_s, delivery_s);
    core::OkMessage record;
    record.create_id = ok.request_id;
    record.origin_node = ok.src;
    record.pair_index = ok.pair_index;
    record.total_pairs = ok.total_pairs;
    record.qubit = ok.qubit_src;
    record.goodness = ok.fidelity;
    record.goodness_time = ok.deliver_time;
    record.create_time = ok.submit_time;
    collector_->record_ok(record, core::Priority::kNetworkLayer, now,
                          ok.fidelity);
  }

  /// An error against (origin, id): counted, and any error but an
  /// expiry closes that request's open entry.
  void error(std::uint32_t origin, std::uint32_t id,
             core::EgpError error) const {
    if (collector_ == nullptr) return;
    core::ErrMessage err;
    err.error = error;
    err.origin_node = origin;
    err.create_id = id;
    collector_->record_err(err);
  }

 private:
  metrics::Collector* collector_;
};

}  // namespace qlink::netlayer
